#include "host.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long size = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

namespace {

HostProbe TimeKernel() {
  HostProbe probe;
  double t0 = WallSeconds();
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    h += static_cast<uint64_t>(i);
  }
  probe.cpu_ms = (WallSeconds() - t0) * 1e3;

  // One random cycle through 2M slots (16 MB): every load depends on the
  // previous one, so the time is memory latency, not bandwidth.
  const size_t n = size_t{1} << 21;
  std::vector<uint64_t> next(n);
  for (size_t i = 0; i < n; ++i) {
    next[i] = i;
  }
  uint64_t x = h | 1;
  for (size_t i = n - 1; i > 0; --i) {  // Sattolo's shuffle: a single cycle.
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const size_t j = static_cast<size_t>(x % i);
    std::swap(next[i], next[j]);
  }
  t0 = WallSeconds();
  uint64_t p = 0;
  for (size_t i = 0; i < n; ++i) {
    p = next[p];
  }
  probe.mem_ms = (WallSeconds() - t0) * 1e3;
  if (p == n) {  // Never true; keeps the chase from being optimized away.
    probe.mem_ms += 1;
  }
  return probe;
}

}  // namespace

bool RunHostProbe(HostProbe* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const HostProbe probe = TimeKernel();
    const ssize_t wrote = write(fds[1], &probe, sizeof(probe));
    _exit(wrote == static_cast<ssize_t>(sizeof(probe)) ? 0 : 1);
  }
  close(fds[1]);
  HostProbe probe;
  const ssize_t got = read(fds[0], &probe, sizeof(probe));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(probe)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  *out = probe;
  return true;
}

}  // namespace perfbench
