// Warm-standby dispatcher (docs/HA.md).
//
// A Standby tails the primary dispatcher's journal over the falkon-wire
// replication messages (ReplFetch -> ReplAppend / ReplSnapshot, served off
// the primary's existing RPC reactor): it keeps a StateMachine warm and
// acknowledges progress with ReplAck. When the primary stops answering for
// `failover_after_s` it runs a lease election among its configured peers
// (ElectionPing/ElectionAck on each standby's election port; deterministic
// lowest-rank-alive wins, solo fetch-timeout path when no peers are
// configured) and, if it wins, promotes itself — recover authoritative
// state under a bumped epoch, spin up a fresh Dispatcher seeded via
// restore(), and take over the primary's listen endpoint (SO_REUSEADDR +
// bind retry) so executors and clients reconnect to the same host:port
// they already know. Losers keep tailing and re-probe; the epoch fence in
// the journal (Journal::Options::promote_epoch) guarantees at most one
// winner per epoch even when the election messages race.
//
// The election port doubles as a chained replication endpoint: a standby
// answers ReplFetch from its own mirrored tail, so M standbys can form a
// chain (standby B tails standby A tails the primary) instead of each
// multiplying primary fetch load.
//
// Promotion recovers from `shared_log_dir` when the standby can see the
// primary's log directory (same-host deployments; authoritative — closes
// any replication lag), falling back to its warm in-memory image persisted
// into `standby_dir` otherwise (loses at most the replication lag, which
// ReplAck keeps observable as falkon.ha.repl.lag).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/dispatcher.h"
#include "core/service_tcp.h"
#include "ha/journal.h"
#include "ha/state.h"

namespace falkon::ha {

/// Another standby participating in the lease election (and, for chained
/// replication, a possible upstream). `port` is the peer's election port.
struct StandbyPeer {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
  std::uint32_t rank{0};
};

struct StandbyOptions {
  /// Upstream to tail: the primary's RPC port — or, for chained
  /// replication, another standby's election port (both speak ReplFetch).
  std::string primary_host{"127.0.0.1"};
  std::uint16_t primary_rpc_port{0};

  /// Election identity: lower rank wins. Ranks must be unique across the
  /// standby fleet.
  std::uint32_t rank{0};
  /// Port for this standby's election + chained-replication server
  /// (0 disables it: the standby can neither be pinged nor tailed).
  std::uint16_t election_port{0};
  /// The other standbys to consult before promoting. Empty = solo mode:
  /// promote on fetch timeout alone, exactly the pre-election behaviour.
  std::vector<StandbyPeer> peers;

  /// Endpoint to claim on promotion — the primary's advertised port, so
  /// reconnecting peers need no re-configuration.
  std::uint16_t takeover_rpc_port{0};

  /// Primary's journal directory when visible from this process (same-host
  /// failover); empty when the standby can only rely on replication.
  std::string shared_log_dir;
  /// The standby's own journal directory, used to persist the warm image
  /// when promoting without a readable shared_log_dir — and, either way,
  /// where the promoted dispatcher keeps journaling. Required.
  std::string standby_dir;
  /// Journal settings for the promoted dispatcher (dir is overridden by
  /// shared_log_dir / standby_dir above).
  Journal::Options journal;

  double poll_interval_s{0.02};
  std::uint32_t fetch_max_bytes{1u << 20};
  /// Bound on the framed-record tail mirrored for chained followers; a
  /// follower further behind gets a full snapshot (same contract as
  /// Journal::Options::repl_tail_bytes).
  std::size_t chain_tail_bytes{4u << 20};
  /// Promote after this long without a successful fetch.
  double failover_after_s{0.5};
  /// Promote even if the primary was never reachable (normally off: a
  /// standby that never saw a primary has nothing to recover and would
  /// race a healthy primary for the port).
  bool promote_without_contact{false};
  /// How long promotion retries binding the takeover port (the dying
  /// primary's sockets may linger briefly).
  double takeover_bind_timeout_s{5.0};

  /// Configuration for the promoted dispatcher (journal/obs/fault fields
  /// are filled in by the standby).
  core::DispatcherConfig dispatcher;

  obs::Obs* obs{nullptr};
  fault::FaultInjector* fault{nullptr};
};

class Standby {
 public:
  Standby(Clock& clock, StandbyOptions options);
  ~Standby();

  Standby(const Standby&) = delete;
  Standby& operator=(const Standby&) = delete;

  /// Start tailing the primary.
  Status start();
  /// Stop tailing (and the promoted server, if any).
  void stop();

  [[nodiscard]] bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }
  /// Block until promotion or timeout (real seconds); true when promoted.
  bool wait_promoted(double timeout_s);

  [[nodiscard]] std::uint64_t applied_lsn() const {
    return applied_.load(std::memory_order_acquire);
  }
  /// Highest epoch this standby has applied (bumps when it promotes).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// This standby's election port (valid after start() when configured).
  [[nodiscard]] std::uint16_t election_port() const {
    return election_server_ != nullptr ? election_server_->port() : 0;
  }

  /// Valid only after promotion.
  [[nodiscard]] core::Dispatcher* dispatcher() { return dispatcher_.get(); }
  [[nodiscard]] core::TcpDispatcherServer* server() { return server_.get(); }

 private:
  void tail_loop();
  /// One ReplFetch exchange; false on transport failure.
  bool fetch_once();
  /// Ping every peer; true when this standby should promote (no live peer
  /// outranks us and none has promoted already). Vacuously true solo.
  bool win_election();
  /// false: promotion lost the epoch fence or the bind — keep standing by.
  bool promote();
  wire::Message serve_election(const wire::Message& request);

  Clock& clock_;
  StandbyOptions options_;

  std::thread tail_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex promote_mu_;
  std::condition_variable promote_cv_;

  std::unique_ptr<net::RpcClient> rpc_;
  /// Mirror state: guarded by mirror_mu_ — the tail thread applies to it
  /// and the election server serves chained ReplFetch from it.
  mutable std::mutex mirror_mu_;
  StateMachine sm_;
  struct ChainRecord {
    std::uint64_t lsn{0};
    std::vector<std::uint8_t> framed;
  };
  std::deque<ChainRecord> chain_tail_;
  std::size_t chain_tail_bytes_{0};
  bool saw_primary_{false};
  /// Tail thread only: the epoch this standby will claim if it wins —
  /// max(everything seen during the election) + 1.
  std::uint64_t election_epoch_{0};

  std::unique_ptr<net::RpcServer> election_server_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<core::Dispatcher> dispatcher_;
  std::unique_ptr<core::TcpDispatcherServer> server_;

  obs::Gauge* m_applied_{nullptr};
  obs::Gauge* m_failover_s_{nullptr};
  obs::Counter* m_elections_{nullptr};
  obs::Counter* m_elections_lost_{nullptr};
};

}  // namespace falkon::ha
