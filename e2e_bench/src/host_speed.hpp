// Host-speed reference. The benchmark's host shares its cores with other
// machines, and the speed one core gives a thread changes by up to 2x for
// minutes at a time. So every timed unit of work (a set-up, a dataset job,
// a segment of a closed loop) is bracketed by samples of a fixed reference
// computation on the same core, and its times are divided by how slow the
// reference ran around it. The reference belongs to the benchmark: it
// links nothing from the repository and is built with fixed flags, so a
// change to the program never moves it.
#pragma once

namespace e2e {

/// Reference time per call that counts as slowness 1.0, in ms. Scaled
/// times are expressed at this reference speed.
inline constexpr double kReferenceNominalMs = 1.5;

/// Runs the reference computation back to back for about `budget_ms` and
/// returns its median time per call divided by kReferenceNominalMs:
/// above 1 when the core runs slower than nominal.
[[nodiscard]] double host_slowness(double budget_ms = 30.0);

/// Host slowness around consecutive units of work: samples once when
/// constructed and once after each unit; a unit's slowness is the mean of
/// the samples on either side of it.
class SlownessTrack {
 public:
  SlownessTrack() : last_(host_slowness()) {}
  /// Call right after a unit of work ends; returns that unit's slowness.
  double after_unit() {
    const double now = host_slowness();
    const double unit = (last_ + now) / 2.0;
    last_ = now;
    return unit;
  }

 private:
  double last_;
};

/// Pins the process (and every thread it starts later) to the CPU it is
/// running on, so the reference samples the same core as the work.
/// Returns that CPU, or -1 when pinning is not permitted.
int pin_to_current_cpu();

}  // namespace e2e
