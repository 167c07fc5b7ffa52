#ifndef T2M_PERFBENCH_CALIBRATE_H
#define T2M_PERFBENCH_CALIBRATE_H

// Machine-speed calibration. On a shared host the same deterministic learn
// runs up to 1.5x slower for tens of seconds at a time, while neighbours
// contend for cache and memory bandwidth. A fixed kernel that stresses the
// same resources, timed between the learns of a run, slows down with them;
// multiplying the run's times by the kernel's speed-up over its reference
// time removes most of that drift. The kernel is the benchmark's own code,
// so a change to the library cannot move it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
public:
  /// Kernel time, in seconds, that defines reference speed (scale 1): the
  /// kernel's typical time on a 2.1 GHz Xeon vCPU.
  static constexpr double kReferenceSeconds = 0.002;
  /// sample_after() takes one more sample per this much busy time.
  static constexpr double kSampleEvery = 0.1;

  SpeedProbe();

  /// Samples the kernel after `busy_seconds` of measured work: once, plus
  /// once per kSampleEvery of it, so the samples follow the run's time, not
  /// its number of learns.
  void sample_after(double busy_seconds);

  /// Reference time over the median kernel time of the samples from index
  /// `first` on: the factor that maps a time measured while they were taken
  /// to reference speed. 1 when there are none.
  double scale_since(std::size_t first) const;

  /// scale_since(0): the scale over every sample so far.
  double scale() const { return scale_since(0); }

  std::size_t samples() const { return seconds_.size(); }

  /// Memory the kernel's table keeps resident for the whole run.
  static std::size_t table_bytes();

private:
  /// One run of the kernel; returns its time in seconds.
  double run_kernel() const;

  std::vector<std::uint32_t> table_;
  std::vector<double> seconds_;
};

}  // namespace perfbench

#endif  // T2M_PERFBENCH_CALIBRATE_H
