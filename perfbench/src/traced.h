// The traced run: one simulation assembled from the runner's public parts
// with the benchmark's taps tee'd into every bottleneck port and host stack,
// timed call by call from outside the library.
#ifndef ECNSHARP_PERFBENCH_TRACED_H_
#define ECNSHARP_PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "observe.h"
#include "workload.h"

namespace ecnsharp::perfbench {

struct TracedSim {
  ExperimentResult result;
  // Host seconds per phase.
  double session_s = 0.0;
  double topo_s = 0.0;
  double bind_s = 0.0;
  double run_s = 0.0;     // Start + Run
  double result_s = 0.0;  // Result()
  double trace_export_s = 0.0;
  double sketch_export_s = 0.0;
  // Simulator events excluding the benchmark's own probe events.
  std::uint64_t events = 0;
  std::size_t pending_hwm = 0;
  std::vector<double> slice_ms;
  std::uint64_t switch_rx = 0;
  std::uint64_t inst_marks = 0;
  std::uint64_t pst_marks = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t cwnd_updates = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t sketch_packets = 0;
  // Empty when enqueued == dequeued + purged + queued holds on every
  // bottleneck port; otherwise names the first port that breaks it.
  std::string accounting_error;
};

// Runs the traced simulation. Events seen at bottleneck ports are counted
// into `capture`, which keeps the first of them for the replay loops.
TracedSim RunTracedSim(const RunSpec& spec, Capture& capture, SpanLog& spans,
                       int parent);

}  // namespace ecnsharp::perfbench

#endif  // ECNSHARP_PERFBENCH_TRACED_H_
