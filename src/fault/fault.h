// Deterministic, seeded fault injection.
//
// The paper's companion reliability work (Zhao et al., "Realizing Fast,
// Scalable and Reliable Scientific Computations in Grid Environments")
// shows Falkon deployments survive worker churn only because the stack
// retries failed tasks and replaces dead workers. To test that machinery
// we need to *provoke* failures on demand, reproducibly: a FaultPlan is a
// seed plus probabilistic rules and scripted one-shot events, and a
// FaultInjector turns it into per-site decisions.
//
// Determinism: every Site owns an independent SplitMix64 stream seeded
// from (plan.seed, site), and decisions depend only on the site's own
// operation counter — so the Nth operation at a site draws the same
// outcome no matter how threads interleave across sites. The DES consumes
// the streams single-threaded and is bit-reproducible; the threaded stack
// gets a reproducible fault *schedule* per site and asserts invariants.
//
// Hooks follow the obs::Obs* discipline: every config takes a nullable
// `fault::FaultInjector*`, and a null pointer costs one predicted branch
// per hook (zero-cost production path).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "obs/obs.h"

namespace falkon::fault {

/// Where a fault can strike. One entry per hook point in the stack.
enum class Site : std::uint8_t {
  kRpcConnect = 0,    // client connection establishment
  kRpcRequest,        // request frame leaving an RPC client
  kRpcReply,          // reply frame leaving the RPC server
  kPushFrame,         // server push (correlation id 0) on an RPC connection
  kExecutorTask,      // executor about to run a task
  kDispatcherNotify,  // dispatcher scheduling a notification
  kDispatcherAck,     // dispatcher ingesting delivered results
  kLrmAllocate,       // GRAM allocation request
  kLrmPreempt,        // running LRM job, sampled once per scheduling cycle
  kHaPrimary,         // primary dispatcher liveness, sampled by HA harnesses
                      // once per chaos round (kCrash = kill the primary);
                      // never drawn by random_plan — only scripted/explicit
                      // plans schedule a takeover
  kHaElection,        // one election ping leaving a standby (kDrop = the
                      // peer looks dead this round); never drawn by
                      // random_plan — scripted plans partition elections
};
inline constexpr std::size_t kSiteCount = 11;

[[nodiscard]] const char* site_name(Site site);

/// What happens when a fault strikes. Not every action is meaningful at
/// every site; hooks ignore actions they cannot express.
enum class Action : std::uint8_t {
  kNone = 0,
  kDrop,      // lose the message / refuse the connection
  kTruncate,  // cut the frame short mid-payload, then sever
  kCorrupt,   // flip payload bytes (length prefix kept intact)
  kDelay,     // add `param` seconds of latency
  kCrash,     // executor dies mid-task without deregistering
  kHang,      // executor stalls `param` seconds mid-task (heartbeats live)
  kSlow,      // slow node: `param` extra seconds on this task
  kReject,    // LRM refuses the allocation request
  kPreempt,   // LRM preempts the running job's nodes
};

[[nodiscard]] const char* action_name(Action action);

/// Probabilistic rule: each operation at `site` suffers `action` with
/// `probability`, independently.
struct FaultRule {
  Site site{Site::kRpcConnect};
  Action action{Action::kNone};
  double probability{0.0};
  double param{0.0};
};

/// Scripted one-shot: exactly the `at_op`-th operation (1-based) at `site`
/// suffers `action`. Scripted events take precedence over rules.
struct ScriptedFault {
  Site site{Site::kRpcConnect};
  Action action{Action::kNone};
  std::uint64_t at_op{1};
  double param{0.0};
};

/// A reproducible chaos schedule: seed + rules + script. Value type; build
/// one, hand it to a FaultInjector, reuse it for a bit-identical rerun.
struct FaultPlan {
  std::uint64_t seed{1};
  std::vector<FaultRule> rules;
  std::vector<ScriptedFault> script;

  FaultPlan& with(Site site, Action action, double probability,
                  double param = 0.0) {
    rules.push_back(FaultRule{site, action, probability, param});
    return *this;
  }
  FaultPlan& at(Site site, Action action, std::uint64_t nth_op,
                double param = 0.0) {
    script.push_back(ScriptedFault{site, action, nth_op, param});
    return *this;
  }
};

/// One line per rule/scripted event, for counterexample dumps and logs.
[[nodiscard]] std::string describe(const FaultPlan& plan);

/// Draw a reproducible chaos schedule from a single seed (the testkit's
/// workload generator uses this to give every generated workload its own
/// fault plan). `intensity` in [0, 1] scales both how many rules are drawn
/// and their probabilities; 0 yields an empty plan.
///
/// Every drawn rule is *recoverable*: probabilities and delay/hang params
/// are bounded so a stack with replay + heartbeat recovery enabled (and a
/// generous retry budget) still drives every task to completion — which is
/// what lets conformance runs demand "all tasks complete" even under
/// faults. Sites that only make sense against real transports (connect /
/// request / reply / push faults) are included; the DES simply never
/// samples them.
[[nodiscard]] FaultPlan random_plan(std::uint64_t seed, double intensity);

/// The decision for one operation. Contextually convertible to bool:
/// true when a fault should be injected.
struct Outcome {
  Action action{Action::kNone};
  double param{0.0};
  explicit operator bool() const { return action != Action::kNone; }
};

struct SiteStats {
  std::uint64_t ops{0};
  std::uint64_t injected{0};
};

/// Thread-safe decision engine over a FaultPlan. Each site is independent:
/// its own mutex, own RNG stream, own operation counter — sampling one
/// site never perturbs another, which is what makes the schedule stable
/// under thread interleaving.
class FaultInjector {
 public:
  /// `obs` (optional) receives falkon.fault.injected.<site> counters.
  explicit FaultInjector(FaultPlan plan, obs::Obs* obs = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Record one operation at `site` and decide its fate.
  Outcome sample(Site site);

  [[nodiscard]] SiteStats stats(Site site) const;
  [[nodiscard]] std::uint64_t total_injected() const;

 private:
  struct SiteState {
    mutable std::mutex mu;
    Rng rng{1};
    std::uint64_t ops{0};
    std::uint64_t injected{0};
    std::vector<FaultRule> rules;
    std::vector<ScriptedFault> script;
    obs::Counter* m_injected{nullptr};
  };

  std::array<SiteState, kSiteCount> sites_;
};

}  // namespace falkon::fault
