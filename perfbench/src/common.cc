#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/export.h"
#include "util/simd.h"

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

namespace {

const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return allowed;
}

std::size_t CpuRotation() {
  return std::max(1, CPU_COUNT(&AllowedCpus()));
}

}  // namespace

double MedianOfRotationMeans(const std::vector<double>& samples) {
  const std::size_t n = CpuRotation();
  std::vector<double> means;
  for (std::size_t i = 0; i + n <= samples.size(); i += n) {
    double sum = 0.0;
    for (std::size_t k = i; k < i + n; ++k) sum += samples[k];
    means.push_back(sum / static_cast<double>(n));
  }
  return Median(means);
}

void MoveToNextCpu() {
  const cpu_set_t& allowed = AllowedCpus();
  static int turn = 0;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int target = 0;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == turn % count) {
      target = cpu;
      break;
    }
  }
  ++turn;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  (void)sched_setaffinity(0, sizeof one, &one);  // migrates the thread now
  (void)sched_setaffinity(0, sizeof allowed, &allowed);
}

std::string HostFingerprintJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  return "{\"cpu\": \"" + rlplanner::obs::JsonEscape(cpu) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": \"" + rlplanner::util::simd::ActiveLevelName() +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

// ---------------------------------------------------------------------------
// Spans.

namespace {
std::atomic<rlplanner::obs::TraceCollector*> g_tracer{nullptr};
}  // namespace

void SetTracer(rlplanner::obs::TraceCollector* tracer) { g_tracer = tracer; }

Span::Span(const char* name, std::uint64_t request_id)
    : ScopedSpan(nullptr, name, g_tracer.load(std::memory_order_relaxed)) {
  if (!traced()) return;
  if (request_id != 0) AddArg("request", request_id);
  if (parent() != nullptr) AddArg("parent", parent()->name());
}

}  // namespace perfbench
