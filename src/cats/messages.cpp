#include "cats/messages.hpp"

#include <mutex>

#include "net/serialization.hpp"

namespace kompics::cats {

namespace {

// The CATS wire-id table. Each message's format is its wire_fields() list.
void do_register() {
  auto& reg = net::SerializationRegistry::instance();
  reg.register_message<PingMsg>(100);
  reg.register_message<PongMsg>(101);
  reg.register_message<ShuffleRequestMsg>(102);
  reg.register_message<ShuffleResponseMsg>(103);
  reg.register_message<FindSuccessorMsg>(104);
  reg.register_message<FoundSuccessorMsg>(105);
  reg.register_message<GetRingStateMsg>(106);
  reg.register_message<RingStateMsg>(107);
  reg.register_message<NotifyMsg>(108);
  reg.register_message<AbdReadMsg>(110);
  reg.register_message<AbdReadAckMsg>(111);
  reg.register_message<AbdWriteMsg>(112);
  reg.register_message<AbdWriteAckMsg>(113);
  reg.register_message<AbdNackMsg>(114);
  reg.register_message<ViewPrepareMsg>(115);
  reg.register_message<ViewPromiseMsg>(116);
  reg.register_message<ViewAcceptMsg>(117);
  reg.register_message<ViewAcceptedMsg>(118);
  reg.register_message<ViewInstallMsg>(119);
  reg.register_message<BootstrapRequestMsg>(120);
  reg.register_message<BootstrapResponseMsg>(121);
  reg.register_message<KeepAliveMsg>(122);
  reg.register_message<StatusReportMsg>(130);
  reg.register_message<RouteLookupMsg>(140);
  reg.register_message<LookupResultMsg>(141);
  reg.register_message<ViewInstallAckMsg>(142);
  reg.register_message<ViewFetchMsg>(143);
}

}  // namespace

void register_cats_serializers() {
  static std::once_flag flag;
  std::call_once(flag, do_register);
}

}  // namespace kompics::cats
