// bench_splitfs: the repository benchmark. One command runs one workload once per
// consistency mode (posix, sync, strict), each on a fresh testbed, prints every
// end-to-end metric by name with its unit (and sample count where it is an order
// statistic), checks its own outputs, and ends with one JSON result line.
//
//   bench_splitfs --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<prefix>]
//   bench_splitfs --check=<BENCHMARK.json>
//
//   --seconds   run length: each mode's timed phase gets a fixed op count, scaled
//               from the workload's nominal host rate, so one run measures about
//               <s> seconds and the same seed always issues the same ops (default 10)
//   --trace     reruns the workload traced after an untraced pass, each at half the
//               run length: the obs tracer and the bench-side layer wrappers are on,
//               the per-layer metrics are printed (and end up in the JSON line), and
//               the spans are exported as Perfetto JSON to <prefix>.<mode>.json
//   --check     self-test: every workload at smoke size, untraced twice and traced
//               once; 1-thread virtual metrics must be bit-identical, mt_shared's
//               within their bounds, no errors, and the printed metric and workload
//               names must be those declared in the given BENCHMARK.json
//
// Virtual metrics come from the simulated clock (the model of the paper's PM host);
// host metrics from this process. See README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_splitfs/workloads.h"

namespace bench_splitfs {
namespace {

// Nominal timed ops per host second, all modes together, on a 4-core x86 host. A
// --seconds run gives each mode seconds * rate / 3 ops.
uint64_t NominalOpsPerSecond(WorkloadId w) {
  switch (w) {
    case WorkloadId::kAppendFsync:
      return 345000;
    case WorkloadId::kKvReadMostly:
      return 75000;
    case WorkloadId::kMetaChurn:
      return 16000;
    case WorkloadId::kMtShared:
      return 180000;
  }
  return 0;
}

// Smoke sizes for --check: small enough that all four workloads, three runs each,
// finish well inside a minute.
Sizes SmokeSizes(WorkloadId w) {
  Sizes s;
  s.kv_records = 10000;
  s.ops = NominalOpsPerSecond(w) / 20;
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;  // Order statistics: the sample count.
  uint64_t beyond = 0;   // Order statistics: samples above the reported one.
  bool is_virtual = false;
};

struct WorkloadRun {
  std::vector<ModeResult> modes;
  std::vector<Metric> e2e;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// Quantile q of the sorted samples `v`, as the mean of the order statistics whose
// ranks lie within q ± half_width (shares of the sample count). Every sample is kept
// exactly (no histogram buckets); averaging a narrow rank window lets the estimate
// move with the inputs where a single order statistic sits on one integer-ns cost
// class. *beyond counts the samples above the window.
double WindowQuantile(const std::vector<uint64_t>& v, double q, double half_width,
                      uint64_t* beyond) {
  double n = static_cast<double>(v.size());
  size_t lo = static_cast<size_t>(std::max(0.0, std::floor((q - half_width) * n)));
  size_t hi = static_cast<size_t>(std::min(n, std::ceil((q + half_width) * n)));
  hi = std::max(hi, std::min(lo + 1, v.size()));
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(v[i]);
  }
  *beyond = v.size() - hi;
  return sum / static_cast<double>(hi - lo);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The 14 end-to-end metrics of one workload run.
std::vector<Metric> EndToEnd(std::vector<ModeResult>* modes) {
  std::vector<Metric> out;
  double log_host = 0;
  std::vector<double> setups;
  uint64_t pm_bytes = 0, user_bytes = 0, recovery_vns = 0;
  for (size_t m = 0; m < modes->size(); ++m) {
    ModeResult& r = (*modes)[m];
    std::string mode = ModeLabel(kModes[m]);
    double kops = static_cast<double>(r.ops) * 1e6 / static_cast<double>(r.elapsed_vns);
    out.push_back({mode + ".kops", "kop/s", kops, 0, 0, true});
    std::sort(r.lat_vns.begin(), r.lat_vns.end());
    uint64_t n = r.lat_vns.size();
    uint64_t beyond = 0;
    double p50 = WindowQuantile(r.lat_vns, 0.5, 0.005, &beyond);
    out.push_back({mode + ".p50_us", "us", p50 / 1e3, n, beyond, true});
    double p999 = WindowQuantile(r.lat_vns, 0.999, 0.0005, &beyond);
    out.push_back({mode + ".p999_us", "us", p999 / 1e3, n, beyond, true});
    std::vector<double> seg;
    for (size_t s = 0; s < r.seg_host_ns.size(); ++s) {
      seg.push_back(static_cast<double>(r.seg_host_ns[s]) / static_cast<double>(r.seg_ops[s]));
    }
    log_host += std::log(Median(seg));
    setups.push_back(static_cast<double>(r.setup_host_ns) / 1e9);
    pm_bytes += r.pm_write_bytes;
    user_bytes += r.user_bytes;
    recovery_vns += r.recovery_vns;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.push_back({"host_ns_per_op", "ns", std::exp(log_host / static_cast<double>(modes->size()))});
  out.push_back({"setup_s", "s", Median(setups), setups.size()});
  out.push_back({"peak_rss_mb", "MiB", static_cast<double>(ru.ru_maxrss) / 1024.0});
  out.push_back({"write_amp", "B/B",
                 static_cast<double>(pm_bytes) / static_cast<double>(user_bytes), 0, 0, true});
  out.push_back({"recovery_ms", "ms", static_cast<double>(recovery_vns) / 1e6, 0, 0, true});
  return out;
}

WorkloadRun RunWorkload(WorkloadId w, uint64_t seed, const Sizes& sizes, bool traced,
                        const std::string& trace_prefix) {
  WorkloadRun run;
  for (splitfs::Mode mode : kModes) {
    std::string path =
        trace_prefix.empty() ? "" : trace_prefix + "." + ModeLabel(mode) + ".json";
    run.modes.push_back(RunMode(w, mode, seed, sizes, traced, path));
    run.attempted += run.modes.back().ops;
    run.failed += run.modes.back().failed;
  }
  run.e2e = EndToEnd(&run.modes);
  return run;
}

std::vector<Metric> PerLayer(const WorkloadRun& run) {
  std::vector<Metric> out;
  for (size_t m = 0; m < run.modes.size(); ++m) {
    for (size_t i = 0; i < kLayerMetrics.size(); ++i) {
      out.push_back({std::string(ModeLabel(kModes[m])) + "." + kLayerMetrics[i].name,
                     kLayerMetrics[i].unit, run.modes[m].layers[i]});
    }
  }
  return out;
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %14s %-6s", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  if (m.samples != 0 && m.name.find("_us") != std::string::npos) {
    std::printf("  (n=%llu, %llu beyond)", static_cast<unsigned long long>(m.samples),
                static_cast<unsigned long long>(m.beyond));
  } else if (m.samples != 0) {
    std::printf("  (median of n=%llu)", static_cast<unsigned long long>(m.samples));
  }
  std::printf("\n");
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Virtual end-to-end metrics of `b` that differ from `a` by more than `bound` (a
// share of a's value; 0 demands bit-identity). `bounds` maps names to their
// declared bound when `bound` < 0.
std::vector<std::string> VirtualDiffs(const WorkloadRun& a, const WorkloadRun& b, double bound,
                                      const std::map<std::string, double>& bounds) {
  std::vector<std::string> diffs;
  for (size_t i = 0; i < a.e2e.size(); ++i) {
    const Metric& x = a.e2e[i];
    if (!x.is_virtual) {
      continue;
    }
    double limit = bound;
    if (limit < 0) {
      auto it = bounds.find(x.name);
      limit = it != bounds.end() ? it->second : 0;
    }
    double y = b.e2e[i].value;
    if (std::fabs(y - x.value) > limit * std::fabs(x.value)) {
      diffs.push_back(x.name + " " + Num(x.value) + " vs " + Num(y));
    }
  }
  return diffs;
}

// --- --check --------------------------------------------------------------------------

struct Declared {
  std::set<std::string> workloads;
  std::map<std::string, std::string> e2e_units;
  std::map<std::string, double> e2e_bounds;
  std::map<std::string, std::string> layer_units;
};

// Reads the workload and metric declarations out of BENCHMARK.json. Not a general
// JSON parser: enough for that file's flat objects of string and number fields.
bool ReadDeclared(const std::string& path, Declared* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const char* kSections[] = {"\"workloads\"", "\"end_to_end\"", "\"per_layer\""};
  std::vector<std::pair<size_t, int>> starts;
  for (int i = 0; i < 3; ++i) {
    size_t pos = text.find(kSections[i]);
    if (pos == std::string::npos) {
      return false;
    }
    starts.emplace_back(pos, i);
  }
  std::sort(starts.begin(), starts.end());
  const std::regex object(R"(\{[^{}]*\})");
  const std::regex field(R"re("(\w+)"\s*:\s*(?:"([^"]*)"|([-+0-9.eE]+)))re");
  for (size_t s = 0; s < starts.size(); ++s) {
    size_t end = s + 1 < starts.size() ? starts[s + 1].first : text.size();
    std::string section = text.substr(starts[s].first, end - starts[s].first);
    for (std::sregex_iterator it(section.begin(), section.end(), object), last; it != last;
         ++it) {
      std::string obj = it->str();
      std::map<std::string, std::string> fields;
      for (std::sregex_iterator f(obj.begin(), obj.end(), field); f != last; ++f) {
        fields[(*f)[1]] = (*f)[2].matched ? (*f)[2].str() : (*f)[3].str();
      }
      const std::string& name = fields["name"];
      switch (starts[s].second) {
        case 0:
          out->workloads.insert(name);
          break;
        case 1:
          out->e2e_units[name] = fields["unit"];
          out->e2e_bounds[name] = std::atof(fields["bound"].c_str());
          break;
        case 2:
          out->layer_units[name] = fields["unit"];
          break;
      }
    }
  }
  return true;
}

int Check(const std::string& benchmark_json) {
  Declared declared;
  if (!ReadDeclared(benchmark_json, &declared)) {
    std::fprintf(stderr, "check: cannot read declarations from %s\n",
                 benchmark_json.c_str());
    return 1;
  }
  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::printf("  FAIL %s\n", what.c_str());
    ++failures;
  };

  std::set<std::string> workloads;
  std::map<std::string, std::string> e2e_units, layer_units;
  for (WorkloadId w : kWorkloads) {
    workloads.insert(WorkloadName(w));
    std::printf("check %s\n", WorkloadName(w));
    Sizes sizes = SmokeSizes(w);
    WorkloadRun a = RunWorkload(w, 1, sizes, false, "");
    WorkloadRun b = RunWorkload(w, 1, sizes, false, "");
    WorkloadRun t = RunWorkload(w, 1, sizes, true, "");
    for (const WorkloadRun* r : {&a, &b, &t}) {
      if (r->failed != 0) {
        fail(std::to_string(r->failed) + " errors in " +
             std::to_string(r->attempted) + " ops");
      }
    }
    // One worker on the shared timeline is deterministic; mt_shared's lanes wait on
    // each other as the host schedules them, so it gets the declared bounds.
    double bound = WorkerThreads(w) == 1 ? 0 : -1;
    for (const std::string& d : VirtualDiffs(a, b, bound, declared.e2e_bounds)) {
      fail("repeat: " + d);
    }
    for (const std::string& d : VirtualDiffs(a, t, bound, declared.e2e_bounds)) {
      fail("traced vs untraced: " + d);
    }
    for (const Metric& m : a.e2e) {
      e2e_units[m.name] = m.unit;
    }
    for (const Metric& m : PerLayer(t)) {
      layer_units[m.name] = m.unit;
    }
  }
  if (workloads != declared.workloads) {
    fail("workload names differ from " + benchmark_json);
  }
  if (e2e_units != declared.e2e_units) {
    fail("end-to-end metric names or units differ from " + benchmark_json);
  }
  if (layer_units != declared.layer_units) {
    fail("per-layer metric names or units differ from " + benchmark_json);
  }
  std::printf("check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_splitfs --workload=<name> --seed=<n> [--seconds=<s>] "
               "[--trace=<prefix>]\n"
               "       bench_splitfs --check=<BENCHMARK.json>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_prefix, check;
  uint64_t seed = 1, seconds = 10;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      seconds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--trace=")) {
      trace_prefix = v;
      traced = true;
    } else if (const char* v = value("--check=")) {
      check = v;
    } else {
      return Usage();
    }
  }
  if (!check.empty()) {
    return Check(check);
  }
  std::optional<WorkloadId> w = ParseWorkload(workload);
  if (!w.has_value() || seconds == 0) {
    return Usage();
  }
  Sizes sizes;
  // A traced invocation runs two passes (untraced, then traced) at half length each.
  sizes.ops = seconds * NominalOpsPerSecond(*w) / std::size(kModes) / (traced ? 2 : 1);

  std::printf("bench_splitfs %s seed=%llu ops/mode=%llu threads=%d device=%llu MiB\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(sizes.ops), WorkerThreads(*w),
              static_cast<unsigned long long>(kDeviceBytes / common::kMiB));
  WorkloadRun run = RunWorkload(*w, seed, sizes, false, "");
  std::printf("end-to-end:\n");
  for (const Metric& m : run.e2e) {
    PrintMetric(m);
  }
  std::printf("  %-34s %14s %-6s  (%llu failed / %llu attempted)\n", "error_rate",
              Num(static_cast<double>(run.failed) / static_cast<double>(run.attempted)).c_str(),
              "1/op", static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (!traced) {
    PrintResultLine(run.failed == 0, run.attempted, run.failed, run.e2e);
    return 0;
  }

  WorkloadRun trace = RunWorkload(*w, seed, sizes, true, trace_prefix);
  std::printf("per-layer (traced pass):\n");
  std::vector<Metric> layers = PerLayer(trace);
  for (const Metric& m : layers) {
    PrintMetric(m);
  }
  uint64_t drops = 0;
  for (const ModeResult& r : trace.modes) {
    drops += r.trace_drops;
  }
  double overhead =
      100.0 * (Find(trace.e2e, "host_ns_per_op") / Find(run.e2e, "host_ns_per_op") - 1.0);
  std::printf("  trace_overhead_pct = %s (traced / untraced host_ns_per_op)\n",
              Num(overhead).c_str());
  std::printf("  trace_ring_drops = %llu\n", static_cast<unsigned long long>(drops));
  std::printf("  traces: %s.{posix,sync,strict}.json\n", trace_prefix.c_str());
  // Tracing must not move virtual time; with one worker the timelines are identical.
  bool same = true;
  if (WorkerThreads(*w) == 1) {
    for (const std::string& d : VirtualDiffs(run, trace, 0, {})) {
      std::printf("  traced pass changed %s\n", d.c_str());
      same = false;
    }
  }
  uint64_t failed = run.failed + trace.failed + (same ? 0 : 1);
  PrintResultLine(failed == 0, run.attempted + trace.attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace bench_splitfs

int main(int argc, char** argv) { return bench_splitfs::Main(argc, argv); }
