// Failover-aware dispatcher client (docs/HA.md).
//
// A drop-in core::DispatcherClient that survives a dispatcher takeover:
// every RPC retries with exponential backoff across reconnects (the
// standby re-binds the same host:port), submits carry a strictly
// increasing per-client submit_seq so a retried SubmitRequest that already
// reached the old primary's journal is acknowledged instead of re-enqueued,
// and results stream as with core::TcpDispatcherClient, whose task-id
// filter keeps mailbox re-delivery after a takeover from double-delivering
// a completion. Together with the dispatcher-side journaling this keeps
// completions exactly-once across failover.
//
// Epoch fencing: submits are stamped with the last dispatcher epoch the
// client learned (from SubmitReply/StatusReply); a server that rejects the
// stamp ("epoch mismatch") triggers one status() re-sync and a retry under
// the fresh epoch, so clients follow a promotion without manual
// reconfiguration — while a zombie primary can never accept a submit
// stamped by a newer regime.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/client.h"
#include "core/result_stream.h"
#include "fault/fault.h"
#include "net/rpc.h"
#include "obs/obs.h"

namespace falkon::ha {

struct FailoverClientOptions {
  std::string host{"127.0.0.1"};
  std::uint16_t rpc_port{0};
  /// Transport-level retries per call; with backoff below, the default
  /// rides out several seconds of takeover downtime.
  int max_attempts{200};
  double backoff_initial_s{0.01};
  double backoff_max_s{0.3};
  fault::FaultInjector* fault{nullptr};
  obs::Obs* obs{nullptr};
};

class FailoverClient final : public core::DispatcherClient {
 public:
  explicit FailoverClient(FailoverClientOptions options);

  Result<InstanceId> create_instance(ClientId client) override;
  Result<std::uint64_t> submit(InstanceId instance,
                               std::vector<TaskSpec> tasks) override;
  Result<std::vector<TaskResult>> wait_results(InstanceId instance,
                                               std::uint32_t max_results,
                                               double timeout_s) override;
  Status destroy_instance(InstanceId instance) override;
  Result<core::DispatcherStatus> status() override;

  /// Reconnects performed so far (each is one observed transport failure).
  [[nodiscard]] std::uint64_t reconnects() const;
  /// Last dispatcher epoch learned from a reply (0 until the first ack
  /// from an epoch-fenced server).
  [[nodiscard]] std::uint64_t epoch() const;

 private:
  /// One RPC with reconnect + backoff across transport failures;
  /// `on_reply` as in net::RpcClient::call.
  Result<wire::Message> call(const wire::Message& request,
                             const std::function<void()>& on_reply = {});
  /// Fold a server-advertised epoch into epoch_ (monotone).
  void learn_epoch(std::uint64_t epoch);

  FailoverClientOptions options_;
  obs::Counter* m_reconnects_{nullptr};
  obs::Counter* m_dup_results_{nullptr};
  /// The client's instances, fed by the current connection's push callback
  /// and routed by ResultStream.instance_id. A reconnect (a takeover above
  /// all) ends the subscriptions with the old connection; the next wait's
  /// fetch finds the held-back results and re-subscribes on the new one,
  /// where a promoted dispatcher streams with a clean cursor after restore.
  core::ResultStreams streams_;
  mutable std::mutex mu_;
  std::uint64_t submit_seq_{0};
  std::uint64_t reconnects_{0};
  std::uint64_t epoch_{0};
  /// Declared after streams_, so destroyed before it: the reader thread
  /// that feeds streams_ is joined first.
  std::unique_ptr<net::RpcClient> rpc_;
};

}  // namespace falkon::ha
