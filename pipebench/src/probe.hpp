// Host-speed probe. The benchmark runs on shared VMs whose speed drifts
// in phases of seconds to minutes (neighbours contending for cache and
// memory bandwidth), so the same round takes 130 ms in one run and 200 ms
// in the next. A fixed piece of work that calls nothing in the tree is
// timed between rounds; a round's timings are scaled by
// kReferenceProbeMs / (median probe time around it), which turns them
// into milliseconds on a host where the probe takes kReferenceProbeMs.
// The probe's work never changes, so a change to the pipeline moves the
// scaled figures as much as the raw ones.
#pragma once

namespace pipebench {

/// The probe's time on the reference host (a 4-vCPU shared Xeon VM in a
/// typical phase); scaled figures read as milliseconds there.
constexpr double kReferenceProbeMs = 14.0;

/// Runs the probe's fixed work once (memory-bound read-modify-writes over
/// an 8 MiB buffer allocated for the call, small-node map inserts, a
/// sequential hash sweep) and returns its wall time in milliseconds.
double hostProbeMs();

}  // namespace pipebench
