#include "ha/standby.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "fault/fault.h"
#include "ha/wal.h"
#include "net/rpc.h"

namespace falkon::ha {
namespace {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void real_sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

Standby::Standby(Clock& clock, StandbyOptions options)
    : clock_(clock), options_(std::move(options)) {
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->registry();
    m_applied_ = &reg.gauge("falkon.ha.standby.applied_lsn");
    m_failover_s_ = &reg.gauge("falkon.ha.standby.failover_s");
    m_elections_ = &reg.counter("falkon.ha.standby.elections");
    m_elections_lost_ = &reg.counter("falkon.ha.standby.elections_lost");
  }
}

Standby::~Standby() { stop(); }

Status Standby::start() {
  if (options_.standby_dir.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "standby_dir not set");
  }
  if (options_.primary_rpc_port == 0) {
    return make_error(ErrorCode::kInvalidArgument, "primary_rpc_port not set");
  }
  if (options_.election_port != 0) {
    election_server_ = std::make_unique<net::RpcServer>();
    auto st = election_server_->start(
        [this](const wire::Message& request) { return serve_election(request); },
        options_.election_port);
    if (!st.ok()) {
      election_server_.reset();
      return st;
    }
  }
  stopping_.store(false, std::memory_order_release);
  tail_thread_ = std::thread([this] { tail_loop(); });
  return ok_status();
}

void Standby::stop() {
  stopping_.store(true, std::memory_order_release);
  if (tail_thread_.joinable()) tail_thread_.join();
  if (election_server_) election_server_->stop();
  if (server_) server_->stop();
}

bool Standby::wait_promoted(double timeout_s) {
  std::unique_lock lock(promote_mu_);
  promote_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [this] { return promoted(); });
  return promoted();
}

bool Standby::fetch_once() {
  if (!rpc_) {
    auto rpc = net::RpcClient::connect(options_.primary_host,
                                       options_.primary_rpc_port);
    if (!rpc.ok()) return false;
    rpc_ = std::make_unique<net::RpcClient>(rpc.take());
  }

  wire::ReplFetch fetch;
  fetch.from_lsn = applied_.load(std::memory_order_relaxed) + 1;
  fetch.max_bytes = options_.fetch_max_bytes;
  fetch.epoch = epoch_.load(std::memory_order_relaxed);
  auto reply = rpc_->call(fetch);
  if (!reply.ok()) {
    rpc_.reset();
    return false;
  }
  saw_primary_ = true;

  bool caught_up = false;
  if (const auto* append = std::get_if<wire::ReplAppend>(&reply.value())) {
    if (append->epoch != 0 &&
        append->epoch < epoch_.load(std::memory_order_relaxed)) {
      // A zombie source from a regime we have already outlived — its branch
      // of history is dead. Redial: DNS/port reuse may route us to the
      // current primary next time.
      rpc_.reset();
      return false;
    }
    if (append->payload.empty()) {
      caught_up = true;
    } else {
      std::lock_guard mirror(mirror_mu_);
      std::uint64_t lsn = append->first_lsn;
      std::uint64_t applied = applied_.load(std::memory_order_relaxed);
      bool bad = false;
      auto st = Wal::parse_frames(
          reinterpret_cast<const std::uint8_t*>(append->payload.data()),
          append->payload.size(),
          [&](const std::uint8_t* payload, std::size_t size) {
            if (bad) return;
            auto record = decode_record(payload, size);
            if (!record.ok()) {
              bad = true;
              return;
            }
            if (lsn > applied) {
              sm_.apply(record.value());
              applied = lsn;
              // Mirror the framed bytes for chained followers tailing us.
              ChainRecord chained;
              chained.lsn = lsn;
              Wal::frame_record(chained.framed, payload, size);
              chain_tail_bytes_ += chained.framed.size();
              chain_tail_.push_back(std::move(chained));
            }
            lsn += 1;
          });
      while (chain_tail_bytes_ > options_.chain_tail_bytes &&
             chain_tail_.size() > 1) {
        chain_tail_bytes_ -= chain_tail_.front().framed.size();
        chain_tail_.pop_front();
      }
      if (!st.ok() || bad) {
        LOG_WARN("ha", "standby: bad replication batch at lsn %llu",
                 static_cast<unsigned long long>(lsn));
        rpc_.reset();
        return false;
      }
      applied_.store(applied, std::memory_order_release);
      epoch_.store(sm_.epoch(), std::memory_order_release);
    }
  } else if (const auto* snap =
                 std::get_if<wire::ReplSnapshot>(&reply.value())) {
    if (snap->epoch != 0 &&
        snap->epoch < epoch_.load(std::memory_order_relaxed)) {
      rpc_.reset();
      return false;
    }
    auto image = decode_image(
        reinterpret_cast<const std::uint8_t*>(snap->payload.data()),
        snap->payload.size());
    if (!image.ok()) {
      LOG_WARN("ha", "standby: bad replication snapshot at lsn %llu",
               static_cast<unsigned long long>(snap->lsn));
      rpc_.reset();
      return false;
    }
    std::lock_guard mirror(mirror_mu_);
    sm_.reset(image.value());
    // The framed tail predates the snapshot: chained followers past this
    // point get a snapshot too.
    chain_tail_.clear();
    chain_tail_bytes_ = 0;
    applied_.store(snap->lsn, std::memory_order_release);
    epoch_.store(sm_.epoch(), std::memory_order_release);
  } else {
    rpc_.reset();  // protocol confusion: redial
    return false;
  }

  if (m_applied_ != nullptr) {
    m_applied_->set(
        static_cast<double>(applied_.load(std::memory_order_relaxed)));
  }
  wire::ReplAck ack;
  ack.applied_lsn = applied_.load(std::memory_order_relaxed);
  ack.epoch = epoch_.load(std::memory_order_relaxed);
  (void)rpc_->call(ack);  // best-effort progress report

  if (caught_up) real_sleep_s(options_.poll_interval_s);
  return true;
}

wire::Message Standby::serve_election(const wire::Message& request) {
  if (const auto* ping = std::get_if<wire::ElectionPing>(&request)) {
    (void)ping;
    wire::ElectionAck ack;
    ack.rank = options_.rank;
    ack.applied_lsn = applied_.load(std::memory_order_acquire);
    ack.promoted = promoted();
    ack.epoch = epoch_.load(std::memory_order_acquire);
    return ack;
  }
  if (const auto* fetch = std::get_if<wire::ReplFetch>(&request)) {
    if (promoted()) {
      // After promotion the authoritative log lives in journal_ and is
      // served by the takeover server; this mirror is frozen and stale.
      return wire::ErrorReply{ErrorCode::kUnavailable,
                              "standby promoted: fetch the primary endpoint"};
    }
    std::lock_guard mirror(mirror_mu_);
    const std::uint64_t my_epoch = sm_.epoch();
    if (fetch->epoch != 0 && fetch->epoch > my_epoch) {
      return wire::ErrorReply{ErrorCode::kUnavailable,
                              "stale replication source: follower epoch " +
                                  std::to_string(fetch->epoch) +
                                  " > source epoch " +
                                  std::to_string(my_epoch)};
    }
    const std::uint64_t last = applied_.load(std::memory_order_relaxed);
    if (fetch->from_lsn > last) {
      wire::ReplAppend reply;  // caught up (empty payload)
      reply.last_lsn = last;
      reply.epoch = my_epoch;
      return reply;
    }
    if (!chain_tail_.empty() && chain_tail_.front().lsn <= fetch->from_lsn) {
      std::string payload;
      std::uint64_t first = 0;
      std::uint64_t last_sent = 0;
      for (const ChainRecord& record : chain_tail_) {
        if (record.lsn < fetch->from_lsn) continue;
        if (first != 0 &&
            payload.size() + record.framed.size() > fetch->max_bytes) {
          break;
        }
        if (first == 0) first = record.lsn;
        payload.append(reinterpret_cast<const char*>(record.framed.data()),
                       record.framed.size());
        last_sent = record.lsn;
      }
      if (first != 0) {
        wire::ReplAppend reply;
        reply.first_lsn = first;
        reply.last_lsn = last_sent;
        reply.payload = std::move(payload);
        reply.epoch = my_epoch;
        return reply;
      }
    }
    // Follower behind our mirrored tail: ship the full warm image.
    wire::ReplSnapshot reply;
    reply.lsn = last;
    reply.epoch = my_epoch;
    const std::vector<std::uint8_t> image = encode_image(sm_.image());
    reply.payload.assign(reinterpret_cast<const char*>(image.data()),
                         image.size());
    return reply;
  }
  if (const auto* ack = std::get_if<wire::ReplAck>(&request)) {
    (void)ack;  // chained followers' progress is not tracked (yet)
    return wire::ReplAckReply{};
  }
  return wire::ErrorReply{ErrorCode::kProtocolError,
                          std::string("unhandled election request: ") +
                              wire::msg_type_name(wire::message_type(request))};
}

bool Standby::win_election() {
  if (m_elections_ != nullptr) m_elections_->inc();
  std::uint64_t max_epoch = epoch_.load(std::memory_order_acquire);
  bool win = true;
  for (const StandbyPeer& peer : options_.peers) {
    if (options_.fault != nullptr) {
      auto outcome = options_.fault->sample(fault::Site::kHaElection);
      if (outcome && outcome.action == fault::Action::kDrop) {
        continue;  // the ping is lost: this peer looks dead this round
      }
      if (outcome && outcome.action == fault::Action::kDelay) {
        real_sleep_s(outcome.param);
      }
    }
    auto rpc = net::RpcClient::connect(peer.host, peer.port);
    if (!rpc.ok()) continue;  // a dead peer cannot outrank us
    wire::ElectionPing ping;
    ping.epoch = max_epoch;
    ping.rank = options_.rank;
    ping.applied_lsn = applied_.load(std::memory_order_relaxed);
    auto reply = rpc.value().call(ping);
    if (!reply.ok()) continue;
    const auto* ack = std::get_if<wire::ElectionAck>(&reply.value());
    if (ack == nullptr) continue;
    max_epoch = std::max(max_epoch, ack->epoch);
    if (ack->promoted) {
      // Someone already took over (possibly the primary answering from the
      // takeover port): adopt the existing regime rather than fight it.
      win = false;
    } else if (ack->rank < options_.rank) {
      win = false;  // a live lower rank wins deterministically
    }
  }
  // The epoch we will fence to if we win: strictly above everything any
  // live participant has seen. Losers remember it too — their next fetch
  // accepts the winner's records without mistaking them for a zombie.
  election_epoch_ = max_epoch + 1;
  return win;
}

void Standby::tail_loop() {
  double first_failure_s = -1.0;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (fetch_once()) {
      first_failure_s = -1.0;
      continue;
    }
    const double now = monotonic_s();
    if (first_failure_s < 0) first_failure_s = now;
    if (now - first_failure_s >= options_.failover_after_s &&
        (saw_primary_ || options_.promote_without_contact)) {
      if (win_election() && promote()) return;
      if (m_elections_lost_ != nullptr) m_elections_lost_->inc();
      // Lost the election or the promotion fence: the winner is taking over
      // the primary's endpoint, so keep tailing and restart the failover
      // clock from scratch.
      first_failure_s = -1.0;
    }
    real_sleep_s(options_.poll_interval_s);
  }
}

bool Standby::promote() {
  const double start_s = monotonic_s();
  const std::uint64_t new_epoch =
      std::max(election_epoch_, epoch_.load(std::memory_order_relaxed) + 1);
  LOG_INFO("ha", "standby promoting: rank=%u epoch=%llu applied_lsn=%llu",
           options_.rank, static_cast<unsigned long long>(new_epoch),
           static_cast<unsigned long long>(
               applied_.load(std::memory_order_relaxed)));

  // Recover the authoritative image. The shared log directory wins when
  // readable: it contains records appended after our last fetch.
  core::DispatcherImage image;
  bool recovered = false;
  if (!options_.shared_log_dir.empty()) {
    Journal::Options jopts = options_.journal;
    jopts.dir = options_.shared_log_dir;
    jopts.obs = options_.obs;
    // The epoch fence: the first process to append RecEpoch{new_epoch} to
    // the shared log owns the promotion; everyone else gets kAlreadyExists
    // here and stands down.
    jopts.promote_epoch = new_epoch;
    auto journal = Journal::open(std::move(jopts));
    if (journal.ok()) {
      journal_ = journal.take();
      image = journal_->recovered_image();
      recovered = true;
    } else if (journal.error().code == ErrorCode::kAlreadyExists) {
      LOG_INFO("ha", "standby: lost promotion fence (%s), standing down",
               journal.error().message.c_str());
      // Learn the regime that fenced us out: if the winner dies before we
      // can tail its RecEpoch, the next election must still bid above it.
      const std::uint64_t fenced = read_log_epoch(options_.shared_log_dir);
      if (fenced > epoch_.load(std::memory_order_relaxed)) {
        epoch_.store(fenced, std::memory_order_release);
      }
      return false;
    } else {
      LOG_WARN("ha", "standby: shared log unusable (%s), using warm image",
               journal.error().message.c_str());
    }
  }
  if (!recovered) {
    std::lock_guard mirror(mirror_mu_);
    Journal::Options jopts = options_.journal;
    jopts.dir = options_.standby_dir;
    jopts.obs = options_.obs;
    jopts.promote_epoch = new_epoch;
    auto journal = Journal::open(std::move(jopts), sm_.image(),
                                 applied_.load(std::memory_order_relaxed));
    if (!journal.ok()) {
      if (journal.error().code == ErrorCode::kAlreadyExists) {
        LOG_INFO("ha", "standby: lost promotion fence (%s), standing down",
                 journal.error().message.c_str());
        const std::uint64_t fenced = read_log_epoch(options_.standby_dir);
        if (fenced > epoch_.load(std::memory_order_relaxed)) {
          epoch_.store(fenced, std::memory_order_release);
        }
        return false;
      }
      LOG_ERROR("ha", "standby: cannot persist warm image: %s",
                journal.error().message.c_str());
      return false;
    }
    journal_ = journal.take();
    image = journal_->recovered_image();
  }

  core::DispatcherConfig config = options_.dispatcher;
  config.journal = journal_.get();
  if (config.obs == nullptr) config.obs = options_.obs;
  dispatcher_ = std::make_unique<core::Dispatcher>(clock_, config);
  dispatcher_->restore(image);

  // Take over the primary's endpoint. SO_REUSEADDR on the listener makes
  // the rebind race only against a still-running primary, so retry until
  // the old process lets go.
  const double bind_deadline = monotonic_s() + options_.takeover_bind_timeout_s;
  for (;;) {
    // Fresh server object per attempt: a partially-started one (reactor
    // up, port still held by the dying primary) tears itself down through
    // its destructor instead of needing restart semantics.
    server_ = std::make_unique<core::TcpDispatcherServer>(*dispatcher_,
                                                          options_.obs);
    server_->set_replication_source(journal_.get());
    server_->set_epoch(journal_->epoch());
    auto st = server_->start(options_.takeover_rpc_port, options_.fault);
    if (st.ok()) break;
    server_.reset();
    if (monotonic_s() >= bind_deadline ||
        stopping_.load(std::memory_order_acquire)) {
      LOG_ERROR("ha", "standby: endpoint takeover failed: %s",
                st.error().message.c_str());
      dispatcher_.reset();
      journal_.reset();
      return false;
    }
    real_sleep_s(0.02);
  }

  // Bind fence (docs/HA.md): between winning the journal fence and binding,
  // a competitor with shared-dir access may have recorded a higher epoch
  // (e.g. we promoted from the warm image because the shared log looked
  // unusable while they could read it). Re-read the shared log's epoch now
  // that we hold the port: if someone is ahead, serving would split-brain.
  if (!options_.shared_log_dir.empty()) {
    const std::uint64_t shared = read_log_epoch(options_.shared_log_dir);
    if (shared > journal_->epoch()) {
      LOG_INFO("ha",
               "standby: shared log fenced past epoch %llu after bind, "
               "standing down",
               static_cast<unsigned long long>(journal_->epoch()));
      if (shared > epoch_.load(std::memory_order_relaxed)) {
        epoch_.store(shared, std::memory_order_release);
      }
      server_->stop();
      server_.reset();
      dispatcher_.reset();
      journal_.reset();
      return false;
    }
  }

  epoch_.store(new_epoch, std::memory_order_release);
  if (m_failover_s_ != nullptr) m_failover_s_->set(monotonic_s() - start_s);
  LOG_INFO("ha", "standby promoted in %.3fs (epoch=%llu, queue=%zu, instances=%zu)",
           monotonic_s() - start_s,
           static_cast<unsigned long long>(new_epoch), image.queue.size(),
           image.instances.size());
  {
    std::lock_guard lock(promote_mu_);
    promoted_.store(true, std::memory_order_release);
  }
  promote_cv_.notify_all();
  return true;
}

}  // namespace falkon::ha
