#include "obs/histogram.h"

#include <cmath>

namespace imoltp::obs {

int LatencyHistogram::BinIndex(double cycles) {
  if (!(cycles > 1.0)) return 0;  // also catches NaN
  const int idx =
      static_cast<int>(std::log2(cycles) * kBinsPerOctave);
  return idx >= kNumBins ? kNumBins - 1 : idx;
}

double LatencyHistogram::BinLowerBound(int i) {
  if (i <= 0) return 0.0;
  return std::exp2(static_cast<double>(i) / kBinsPerOctave);
}

double LatencyHistogram::BinUpperBound(int i) {
  return std::exp2(static_cast<double>(i + 1) / kBinsPerOctave);
}

void LatencyHistogram::Add(double cycles) {
  if (cycles < 0.0) cycles = 0.0;
  ++bins_[BinIndex(cycles)];
  ++count_;
  sum_ += cycles;
  if (count_ == 1 || cycles < min_) min_ = cycles;
  if (cycles > max_) max_ = cycles;
}

void LatencyHistogram::Reset() { *this = LatencyHistogram(); }

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Rank of the requested sample (1-based, nearest-rank convention).
  const double rank = p / 100.0 * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBins; ++i) {
    if (bins_[i] == 0) continue;
    const uint64_t next = cumulative + bins_[i];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation by rank within the bin's cycle range.
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(bins_[i]);
      const double lo = BinLowerBound(i);
      const double hi = BinUpperBound(i);
      double v = lo + frac * (hi - lo);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
    cumulative = next;
  }
  return max_;
}

}  // namespace imoltp::obs
