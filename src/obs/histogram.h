#ifndef IMOLTP_OBS_HISTOGRAM_H_
#define IMOLTP_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace imoltp::obs {

/// Log-spaced histogram of per-transaction simulated-cycle latencies.
/// Bin edges grow by 2^(1/kBinsPerOctave), so relative quantization
/// error is bounded (~19% per bin at 4 bins/octave) while 128 bins span
/// 1 cycle to 2^32 cycles — far beyond any simulated transaction.
/// Percentiles interpolate linearly inside the owning bin and are
/// clamped to the observed min/max, so p100 == max exactly.
class LatencyHistogram {
 public:
  static constexpr int kBinsPerOctave = 4;
  static constexpr int kNumBins = 128;

  void Add(double cycles);
  void Reset();

  uint64_t count() const { return count_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Latency at percentile `p` in [0, 100]. 0 with no samples.
  double Percentile(double p) const;
  double p50() const { return Percentile(50.0); }
  double p90() const { return Percentile(90.0); }
  double p99() const { return Percentile(99.0); }

  const std::array<uint64_t, kNumBins>& bins() const { return bins_; }

  /// Inclusive lower / exclusive upper cycle bound of bin `i`.
  static double BinLowerBound(int i);
  static double BinUpperBound(int i);

 private:
  static int BinIndex(double cycles);

  std::array<uint64_t, kNumBins> bins_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_HISTOGRAM_H_
