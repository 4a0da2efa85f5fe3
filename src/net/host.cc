#include "net/host.h"

namespace ecnsharp {

void Host::set_extra_egress_delay(Time delay) {
  extra_egress_delay_ = delay;
  if (egress_delay_ != nullptr) egress_delay_->SetDelay(delay);
}

void Host::SendPacket(std::unique_ptr<Packet> pkt) {
  if (extra_egress_delay_.IsZero()) {
    nic().Enqueue(std::move(pkt));
    return;
  }
  // Built on first use, so set-up pays nothing per host.
  if (egress_delay_ == nullptr) {
    nic_sink_.emplace(nic());
    egress_delay_ =
        std::make_unique<DelayLine>(sim_, *nic_sink_, extra_egress_delay_);
  }
  egress_delay_->HandlePacket(std::move(pkt));
}

}  // namespace ecnsharp
