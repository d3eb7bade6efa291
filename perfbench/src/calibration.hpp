// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds as other tenants load the caches and memory. A fixed,
// saisim-independent pass timed between experiments measures that drift:
// dividing an experiment's host time by the mean of the passes on either
// side of it cancels most of it, and no change to saisim can move the pass.
#pragma once

namespace perfbench {

/// Host seconds of one calibration pass: a discrete-event loop over a
/// binary heap and a hash table, then random read-modify-writes over a
/// 16 MiB table — the access mix of a simulator, fixed in this file. The
/// pass allocates its memory afresh (the first-touch cost is part of what
/// it measures) and returns it to the system before it returns.
double calibration_pass();

}  // namespace perfbench
