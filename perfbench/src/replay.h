// Replay loops: time single library calls on the event stream the traced
// run captured at its bottleneck ports, so each layer's per-call cost is
// measured on the workload's own inter-arrivals, sojourns and flow keys.
#ifndef ECNSHARP_PERFBENCH_REPLAY_H_
#define ECNSHARP_PERFBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "observe.h"
#include "workload.h"

namespace ecnsharp::perfbench {

struct ReplayResult {
  double packet_ns = 0.0;       // NewPacket + release
  double enq_deq_ns = 0.0;      // drop-tail FifoQueueDisc Enqueue + Dequeue
  double forward_ns = 0.0;      // SwitchNode::HandlePacket
  double trace_tap_ns = 0.0;    // TraceRecorder port tap, per call
  double sketch_tap_ns = 0.0;   // SketchTelemetry port tap, per call
  // AllowEnqueue + OnDequeue per packet, by CLI scheme name.
  std::vector<std::pair<std::string, double>> aqm_ns;
};

ReplayResult RunReplays(const RunSpec& spec, const std::vector<PortEvent>& events,
                        SpanLog& spans, int parent);

}  // namespace ecnsharp::perfbench

#endif  // ECNSHARP_PERFBENCH_REPLAY_H_
