#include "storage/slotted_page.h"

namespace imoltp::storage {

// Slot encoding: `offset` is the record's byte offset within the page
// (0 only for a never-used directory entry — offset 0 is inside the
// header, so no record can live there). The high bit of `length` marks a
// freed slot; the low 15 bits keep the record size so the space can be
// reused by a record of at most that size.
namespace {
constexpr uint16_t kSlotFreedBit = 0x8000;
}  // namespace

uint16_t SlottedPage::Insert(uint8_t* page, const uint8_t* record,
                             uint16_t length) {
  Header* h = HeaderOf(page);
  Slot* slots = Slots(page);

  if (h->free_slots > 0) {
    for (uint16_t s = 0; s < h->num_slots; ++s) {
      if ((slots[s].length & kSlotFreedBit) != 0 &&
          (slots[s].length & ~kSlotFreedBit) >= length) {
        slots[s].length = length;
        std::memcpy(page + slots[s].offset, record, length);
        --h->free_slots;
        return s;
      }
    }
  }

  const uint32_t dir_end =
      sizeof(Header) + (h->num_slots + 1u) * sizeof(Slot);
  if (dir_end + length > h->data_start) return kInvalidSlot;

  const uint16_t slot = h->num_slots++;
  h->data_start -= length;
  slots[slot].offset = h->data_start;
  slots[slot].length = length;
  std::memcpy(page + h->data_start, record, length);
  return slot;
}

bool SlottedPage::InsertAt(uint8_t* page, uint16_t slot,
                           const uint8_t* record, uint16_t length) {
  Header* h = HeaderOf(page);
  Slot* slots = Slots(page);

  // Grow the directory through `slot`; intermediate entries stay
  // never-used (offset 0) and read as absent until restored themselves.
  while (h->num_slots <= slot) {
    const uint32_t dir_end =
        sizeof(Header) + (h->num_slots + 1u) * sizeof(Slot);
    if (dir_end > h->data_start) return false;
    slots[h->num_slots].offset = 0;
    slots[h->num_slots].length = 0;
    ++h->num_slots;
  }

  Slot& s = slots[slot];
  if (s.offset != 0 && (s.length & kSlotFreedBit) == 0) {
    if (s.length != length) return false;
    std::memcpy(page + s.offset, record, length);
    return true;
  }
  if (s.offset != 0 && (s.length & ~kSlotFreedBit) >= length) {
    // Freed slot with enough space: reuse its record area.
    s.length = length;
    --h->free_slots;
    std::memcpy(page + s.offset, record, length);
    return true;
  }
  const uint32_t dir_end = sizeof(Header) + h->num_slots * sizeof(Slot);
  if (dir_end + length > h->data_start) return false;
  if (s.offset != 0) --h->free_slots;  // freed but too small; abandon it
  h->data_start -= length;
  s.offset = h->data_start;
  s.length = length;
  std::memcpy(page + h->data_start, record, length);
  return true;
}

const uint8_t* SlottedPage::Get(const uint8_t* page, uint16_t slot,
                                uint16_t* length) {
  const Header* h = HeaderOf(page);
  if (slot >= h->num_slots) return nullptr;
  const Slot& s = Slots(page)[slot];
  if (s.offset == 0 || (s.length & kSlotFreedBit) != 0) return nullptr;
  if (length != nullptr) *length = s.length;
  return page + s.offset;
}

uint8_t* SlottedPage::GetMutable(uint8_t* page, uint16_t slot,
                                 uint16_t* length) {
  return const_cast<uint8_t*>(
      Get(const_cast<const uint8_t*>(page), slot, length));
}

bool SlottedPage::Delete(uint8_t* page, uint16_t slot) {
  Header* h = HeaderOf(page);
  if (slot >= h->num_slots) return false;
  Slot& s = Slots(page)[slot];
  if (s.offset == 0 || (s.length & kSlotFreedBit) != 0) return false;
  s.length |= kSlotFreedBit;
  ++h->free_slots;
  return true;
}

uint16_t SlottedPage::FreeBytes(const uint8_t* page) {
  const Header* h = HeaderOf(page);
  const uint32_t dir_end =
      sizeof(Header) + h->num_slots * sizeof(Slot);
  if (dir_end >= h->data_start) return 0;
  return static_cast<uint16_t>(h->data_start - dir_end);
}

}  // namespace imoltp::storage
