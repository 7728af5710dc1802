// Host-side measurements: wall and process CPU clocks, resident memory, and
// the fixed host-speed kernel that lets a reader tell host drift from a code
// change.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

namespace perfbench {

// Monotonic wall clock, seconds.
double WallSeconds();
// CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();
// Resident set size right now, MB.
double CurrentRssMb();
// Peak resident set size of this process so far, MB.
double PeakRssMb();

struct HostProbe {
  double cpu_ms = 0;  // Fixed integer-hash loop.
  double mem_ms = 0;  // Dependent pointer chase over a fixed 16 MB ring.
};

// Times the fixed kernel in a child process, so neither its memory nor its
// cache footprint reaches the measured process. Call once, before setup.
// Returns false if the child could not be run.
bool RunHostProbe(HostProbe* out);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
