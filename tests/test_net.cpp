// TCP substrate tests: sockets and their buffered frame reads, the reactor
// event loop and its write-through sends, RPC request/response, keyed
// pushes on the RPC connection, and the watermark backpressure and
// fd-exhaustion paths of the server side.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {
namespace {

TEST(Socket, ListenerPicksEphemeralPort) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener.value().port(), 0);
}

TEST(Socket, ConnectRefusedOnClosedPort) {
  // Bind then immediately close to learn a (probably) dead port.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  auto stream = TcpStream::connect("127.0.0.1", port);
  EXPECT_FALSE(stream.ok());
}

TEST(Rpc, EchoCallRoundtrip) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message& request) -> wire::Message {
                    if (const auto* notify = std::get_if<wire::Notify>(&request)) {
                      return wire::Notify{notify->executor_id,
                                          notify->resource_key + 1};
                    }
                    return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                  })
                  .ok());

  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::Notify{ExecutorId{5}, 41});
  ASSERT_TRUE(reply.ok());
  const auto* notify = std::get_if<wire::Notify>(&reply.value());
  ASSERT_NE(notify, nullptr);
  EXPECT_EQ(notify->resource_key, 42u);
  server.stop();
}

TEST(Rpc, ServerErrorReplySurfacesAsStatus) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::ErrorReply{ErrorCode::kNotFound, "nope"};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::StatusRequest{});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(Rpc, ManySequentialCallsOnOneConnection) {
  std::atomic<int> handled{0};
  RpcServer server;
  ASSERT_TRUE(server
                  .start([&](const wire::Message&) -> wire::Message {
                    handled.fetch_add(1);
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  }
  EXPECT_EQ(handled.load(), 200);
  server.stop();
}

TEST(Rpc, MultipleConcurrentClients) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto client = RpcClient::connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < 50; ++i) {
        if (client.value().call(wire::StatusRequest{}).ok()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(successes.load(), 8 * 50);
  server.stop();
}

TEST(Rpc, PipelinedCallsShareOneConnection) {
  // Many threads issue calls through ONE client: all calls multiplex over a
  // single connection (correlation ids demux the replies) and every caller
  // gets its own answer back.
  RpcServerOptions options;
  options.handler_threads = 4;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        return wire::Notify{notify->executor_id,
                                            notify->resource_key * 2};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + i;
        auto reply = client.value().call(wire::Notify{ExecutorId{1}, key});
        if (!reply.ok()) continue;
        const auto* notify = std::get_if<wire::Notify>(&reply.value());
        if (notify != nullptr && notify->resource_key == key * 2) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(correct.load(), 8 * 50);
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(Rpc, OutOfOrderRepliesRouteByCorrelationId) {
  // A pooled server finishes a fast call while a slow one is still being
  // handled on the same connection; the fast reply overtakes the slow one
  // on the wire and the client must route both correctly.
  constexpr std::uint64_t kSlowKey = 1;
  constexpr std::uint64_t kFastKey = 2;
  RpcServerOptions options;
  options.handler_threads = 2;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        if (notify->resource_key == kSlowKey) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(300));
                        }
                        return *notify;
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::mutex mu;
  std::vector<std::uint64_t> completion_order;
  std::thread slow([&] {
    auto reply = client.value().call(wire::Notify{ExecutorId{1}, kSlowKey});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kSlowKey);
    std::lock_guard lock(mu);
    completion_order.push_back(kSlowKey);
  });
  // Give the slow call time to reach the server before racing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto reply = client.value().call(wire::Notify{ExecutorId{1}, kFastKey});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kFastKey);
  {
    std::lock_guard lock(mu);
    completion_order.push_back(kFastKey);
  }
  slow.join();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], kFastKey);  // overtook the slow call
  EXPECT_EQ(completion_order[1], kSlowKey);
  server.stop();
}

TEST(Rpc, CorruptReplyFailsOnlyItsOwnCall) {
  // Reply #3 is corrupted in-flight (payload bytes flipped, framing intact):
  // exactly that call fails with a protocol error; earlier and later calls
  // on the SAME connection succeed — the stream never desynchronises.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kCorrupt, /*nth_op=*/3);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 1; i <= 5; ++i) {
    auto reply = client.value().call(wire::StatusRequest{});
    if (i == 3) {
      ASSERT_FALSE(reply.ok()) << "corrupted reply must fail its call";
      EXPECT_EQ(reply.error().code, ErrorCode::kProtocolError);
    } else {
      EXPECT_TRUE(reply.ok()) << "call " << i << ": " << (reply.ok() ? "" : reply.error().str());
    }
  }
  server.stop();
}

TEST(Rpc, DroppedReplyFailsEveryCallInFlight) {
  // A dropped reply severs the stream (fault semantics at kRpcReply): every
  // call in flight on that connection fails — they were all mapped to the
  // lost stream — and the client stays broken rather than silently hanging.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kDrop, /*nth_op=*/2);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());

  // Two concurrent calls: reply #2's flush severs the connection, so BOTH
  // fail — one by the drop itself, the other by the stream's death.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      if (!client.value().call(wire::StatusRequest{}).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 2);
  // The connection is gone for good; later calls fail fast, never hang.
  EXPECT_FALSE(client.value().call(wire::StatusRequest{}).ok());
  server.stop();
}

TEST(Rpc, InflightGaugeRegistersWithObs) {
  obs::Obs obs;
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port(), nullptr, &obs);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  // After a completed call the gauge exists and reads zero in flight.
  EXPECT_EQ(obs.registry().gauge("falkon.net.rpc.inflight").value(), 0.0);
  server.stop();
}

TEST(Reactor, TimersFireOnceAndPeriodicallyUntilCancelled) {
  Reactor reactor;
  ASSERT_TRUE(reactor.start().ok());
  std::atomic<int> once{0};
  std::atomic<int> ticks{0};
  reactor.add_timer(0.01, [&] { once.fetch_add(1); });
  const TimerId periodic = reactor.add_periodic(0.005, [&] {
    ticks.fetch_add(1);
  });
  for (int i = 0; i < 1000 && (once.load() < 1 || ticks.load() < 3); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(once.load(), 1);
  EXPECT_GE(ticks.load(), 3);
  reactor.cancel_timer(periodic);
  reactor.barrier();  // cancellation processed on the loop
  const int after_cancel = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ticks.load(), after_cancel);
  reactor.stop();
}

// Satellite of the reactor migration: EMFILE on accept must pause the
// listener with backoff (counting falkon.net.accept_rejected) instead of
// spinning or dying, and the pending connection must complete once
// descriptors free up. Runs for both a single loop and a sharded reactor —
// with n_loops > 1 the backoff timer and the retried accept live on the
// listener's home loop while the adopted connection may land on another.
void run_accept_backoff_recovery(int n_loops) {
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.n_loops = n_loops;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto& rejected = obs.registry().counter("falkon.net.accept_rejected");
  ASSERT_EQ(rejected.value(), 0u);

  // Lower RLIMIT_NOFILE to just above current usage and hoard the rest,
  // keeping exactly one slot free for the client's own socket.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  std::vector<int> hoard;
  {
    long used = 0;
    for (int fd = 0; fd < 4096; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) used = fd + 1;
    }
    rlimit tight = old_limit;
    tight.rlim_cur = static_cast<rlim_t>(used + 8);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
    int fd = -1;
    while ((fd = ::open("/dev/null", O_RDONLY)) >= 0) hoard.push_back(fd);
    ASSERT_FALSE(hoard.empty());
    ::close(hoard.back());  // the client's slot
    hoard.pop_back();
  }

  // The TCP handshake completes in the kernel backlog; accept4 in the
  // reactor hits EMFILE and backs off.
  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 1000 && rejected.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(rejected.value(), 1u);

  // Free the descriptors: the next backoff retry adopts the connection and
  // the exchange completes end to end.
  for (int fd : hoard) ::close(fd);
  hoard.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  ASSERT_TRUE(wire::write_frame(stream.value(), 1,
                                wire::encode_message(wire::StatusRequest{}))
                  .ok());
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  auto reply = wire::decode_message(frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  server.stop();
}

TEST(Rpc, AcceptBackoffOnFdExhaustionThenRecovers) {
  run_accept_backoff_recovery(1);
}

TEST(Rpc, AcceptBackoffRecoversWithShardedLoops) {
  run_accept_backoff_recovery(2);
}

TEST(Rpc, WatermarkBackpressureDrainsOversizedRepliesInOrder) {
  // Oversized replies through a tiny SO_SNDBUF and a slow reader: the
  // connection outbox crosses the high watermark, the reactor stops
  // reading the connection (falkon.net.reactor.read_paused), and the
  // backlog drains through partial writev rounds without reordering or
  // corrupting a single frame.
  constexpr std::size_t kReplyBytes = 1u << 20;
  constexpr int kCalls = 6;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(
                            kReplyBytes,
                            static_cast<char>('a' + notify->resource_key % 26));
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  // Pipeline every request before reading a single reply byte, so the
  // replies (6 MiB total) pile up behind a ~4 KiB send buffer.
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    stream.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{corr}, corr}))
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  wire::Frame frame;
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    // Slow reader: let the outbox stay backed up between frames.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
    // One shared handler worker => strict FIFO, replies arrive in request
    // order even though the transport stalled mid-frame many times.
    EXPECT_EQ(frame.corr, corr);
    auto reply = wire::decode_message(frame.payload);
    ASSERT_TRUE(reply.ok());
    const auto* results = std::get_if<wire::WaitResultsReply>(&reply.value());
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->results.size(), 1u);
    EXPECT_EQ(results->results[0].task_id.value, corr);
    const std::string expected(
        kReplyBytes, static_cast<char>('a' + corr % 26));
    EXPECT_TRUE(results->results[0].stdout_data == expected)
        << "payload corrupted for corr " << corr;
  }
  EXPECT_GE(obs.registry().counter("falkon.net.reactor.read_paused").value(),
            1u);
  server.stop();
}

TEST(Reactor, AcceptedConnectionsDistributeFairlyAcrossLoops) {
  // Round-robin accept handoff: with 4 loops and 12 connections every loop
  // must own exactly 3 — no loop is ever hot-spotted by placement alone.
  Reactor reactor(ReactorOptions{.n_loops = 4});
  ASSERT_TRUE(reactor.start().ok());
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  reactor.add_listener(listener.value().fd(), [&](int fd) {
    reactor.adopt(
        fd,
        [](const std::shared_ptr<Reactor::Conn>& conn, std::uint64_t corr,
           std::vector<std::uint8_t>&& payload) {
          (void)conn->send_frame(corr, payload);
          conn->recycle(std::move(payload));
        },
        [](const std::shared_ptr<Reactor::Conn>&) {});
  });

  std::vector<TcpStream> clients;
  for (int i = 0; i < 12; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", listener.value().port());
    ASSERT_TRUE(stream.ok());
    clients.push_back(stream.take());
  }
  for (int i = 0; i < 1000 && reactor.open_connections() < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(reactor.open_connections(), 12u);
  reactor.barrier();
  const auto per_loop = reactor.connections_per_loop();
  ASSERT_EQ(per_loop.size(), 4u);
  for (std::size_t loop = 0; loop < per_loop.size(); ++loop) {
    EXPECT_EQ(per_loop[loop], 3u) << "loop " << loop;
  }
  clients.clear();
  reactor.remove_listener(listener.value().fd());
  reactor.stop();
}

TEST(Reactor, ReuseportSiblingListenersKeepConnectionsOnAcceptingLoop) {
  // SO_REUSEPORT accept mode: one listener per loop on the same port, the
  // kernel balances accepts across them, and each accepted connection is
  // adopted on the loop that accepted it instead of being handed off
  // round-robin to another loop's thread.
  Reactor reactor(ReactorOptions{.n_loops = 2, .reuseport = true});
  ASSERT_TRUE(reactor.start().ok());
  auto primary = TcpListener::bind(0, /*reuseport=*/true);
  ASSERT_TRUE(primary.ok());
  auto sibling = TcpListener::bind(primary.value().port(), /*reuseport=*/true);
  ASSERT_TRUE(sibling.ok()) << sibling.error().str();
  auto on_accept = [&](int fd) {
    reactor.adopt(
        fd,
        [](const std::shared_ptr<Reactor::Conn>& conn, std::uint64_t corr,
           std::vector<std::uint8_t>&& payload) {
          (void)conn->send_frame(corr, payload);
          conn->recycle(std::move(payload));
        },
        [](const std::shared_ptr<Reactor::Conn>&) {});
  };
  reactor.add_listener(primary.value().fd(), on_accept);
  reactor.add_listener(sibling.value().fd(), on_accept);

  std::vector<TcpStream> clients;
  for (int i = 0; i < 32; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", primary.value().port());
    ASSERT_TRUE(stream.ok());
    clients.push_back(stream.take());
  }
  for (int i = 0; i < 1000 && reactor.open_connections() < 32; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(reactor.open_connections(), 32u);
  reactor.barrier();
  const auto per_loop = reactor.connections_per_loop();
  ASSERT_EQ(per_loop.size(), 2u);
  EXPECT_EQ(per_loop[0] + per_loop[1], 32u);
  // The kernel's 4-tuple hash spreads 32 distinct source ports over both
  // listeners; all-on-one odds are ~2^-31, so both loops must own some.
  EXPECT_GE(per_loop[0], 1u);
  EXPECT_GE(per_loop[1], 1u);
  clients.clear();
  reactor.remove_listener(primary.value().fd());
  reactor.remove_listener(sibling.value().fd());
  reactor.stop();
}

TEST(Reactor, SetAffinityMigratesAndForeignThreadSendLandsOnOwner) {
  // Pinning a connection moves it to loops[key % n_loops]; a send_frame
  // issued from a thread that is not the owning loop (here: the test
  // thread) must still drain through the owner's flush path and arrive
  // intact on the wire.
  obs::Obs obs;
  Reactor reactor(ReactorOptions{.n_loops = 4, .obs = &obs});
  ASSERT_TRUE(reactor.start().ok());
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::mutex mu;
  std::vector<std::shared_ptr<Reactor::Conn>> conns;
  reactor.add_listener(listener.value().fd(), [&](int fd) {
    auto conn = reactor.adopt(
        fd,
        [](const std::shared_ptr<Reactor::Conn>&, std::uint64_t,
           std::vector<std::uint8_t>&&) {},
        [](const std::shared_ptr<Reactor::Conn>&) {});
    std::lock_guard<std::mutex> lock(mu);
    conns.push_back(std::move(conn));
  });

  std::vector<TcpStream> clients;
  for (int i = 0; i < 8; ++i) {
    auto stream = TcpStream::connect("127.0.0.1", listener.value().port());
    ASSERT_TRUE(stream.ok());
    clients.push_back(stream.take());
  }
  for (int i = 0; i < 1000 && reactor.open_connections() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(reactor.open_connections(), 8u);

  // Pin connection i to key 101 + i: owner becomes loop (101 + i) % 4 —
  // one over from where round-robin accept placed it, so every
  // connection genuinely migrates.
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(conns.size(), 8u);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      conns[i]->set_affinity(101 + i);
    }
  }
  // Twice: the first barrier drains the migrate ops on the old owners
  // (which post registration ops to the targets), the second drains those
  // registrations.
  reactor.barrier();
  reactor.barrier();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(conns[i]->owner_loop_index(),
              static_cast<int>((101 + i) % 4))
        << "conn " << i;
  }
  // Migration preserved fairness: keys 101..108 cover each loop twice.
  const auto per_loop = reactor.connections_per_loop();
  for (std::size_t loop = 0; loop < per_loop.size(); ++loop) {
    EXPECT_EQ(per_loop[loop], 2u) << "loop " << loop;
  }
  EXPECT_GE(obs.registry().counter("falkon.net.reactor.migrations").value(),
            1u);

  // Foreign-thread sends: one frame to every connection, all from here.
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(conns[i]->send_frame(i + 1, payload).ok());
  }
  wire::Frame frame;
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(wire::read_frame(clients[i], frame).ok());
    EXPECT_EQ(frame.corr, i + 1);
    EXPECT_EQ(frame.payload, payload);
  }
  clients.clear();
  reactor.remove_listener(listener.value().fd());
  reactor.stop();
}

TEST(Rpc, AffinityKeyPinsConnectionsToKeyedLoop) {
  // The RPC decode path applies the server's affinity_key extractor: four
  // connections whose requests all carry keys that map to loop 0 end up
  // owned by loop 0, regardless of where round-robin accept placed them.
  Reactor reactor(ReactorOptions{.n_loops = 4});
  ASSERT_TRUE(reactor.start().ok());
  RpcServerOptions options;
  options.reactor = &reactor;
  options.affinity_key = [](const wire::Message& request) -> std::uint64_t {
    const auto* notify = std::get_if<wire::Notify>(&request);
    return notify != nullptr ? notify->executor_id.value : 0;
  };
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  },
                  0, nullptr, options)
                  .ok());

  std::vector<RpcClient> clients;
  for (int i = 1; i <= 4; ++i) {
    auto client = RpcClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    // Key 4*i: every connection maps to loop (4*i) % 4 == 0.
    ASSERT_TRUE(client.value()
                    .call(wire::Notify{ExecutorId{4u * static_cast<std::uint64_t>(i)}, 0})
                    .ok());
    clients.push_back(std::move(client.value()));
  }
  reactor.barrier();
  reactor.barrier();  // second pass covers migrate -> target registration
  const auto per_loop = reactor.connections_per_loop();
  ASSERT_EQ(per_loop.size(), 4u);
  EXPECT_EQ(per_loop[0], 4u);
  EXPECT_EQ(per_loop[1] + per_loop[2] + per_loop[3], 0u);
  for (auto& client : clients) client.close();
  server.stop();
  reactor.stop();
}

TEST(Rpc, WatermarkBackpressureIsolatedPerLoop) {
  // Two connections pinned to different loops: one wedges itself behind a
  // tiny SO_SNDBUF with oversized replies it never reads (its loop pauses
  // reading it), while the other keeps completing fast roundtrips — a
  // stalled connection's backlog must never leak backpressure into a loop
  // it does not live on.
  constexpr std::size_t kReplyBytes = 1u << 20;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.n_loops = 2;
  options.handler_threads = 2;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  options.affinity_key = [](const wire::Message& request) -> std::uint64_t {
    const auto* notify = std::get_if<wire::Notify>(&request);
    return notify != nullptr ? notify->executor_id.value : 0;
  };
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        if (notify->resource_key == 0) {
                          // Fast path: tiny echo.
                          return wire::StatusReply{};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(kReplyBytes, 'x');
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  // Slow connection, pinned to loop 1 % 2 == 1: pipeline six 1 MiB replies
  // and never read a byte.
  auto slow = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  for (std::uint64_t corr = 1; corr <= 6; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    slow.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{1}, corr}))
                    .ok());
  }
  auto& paused = obs.registry().counter("falkon.net.reactor.read_paused");
  for (int i = 0; i < 1000 && paused.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(paused.value(), 1u);

  // Fast connection, pinned to loop 2 % 2 == 0: every echo completes while
  // the other loop's connection sits read-paused with a full outbox.
  auto fast = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(fast.ok());
  for (int i = 0; i < 100; ++i) {
    auto reply = fast.value().call(wire::Notify{ExecutorId{2}, 0});
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  }
  fast.value().close();
  server.stop();
}

// ---- keyed pushes on the RPC connection ---------------------------------
//
// A Notify request subscribes: bind_key binds the connection it came on to
// Notify.executor_id, and push() then writes correlation-id-0 frames there,
// which the client's reader hands to its push callback.

std::uint64_t notify_key(const wire::Message& request) {
  const auto* notify = std::get_if<wire::Notify>(&request);
  return notify != nullptr ? notify->executor_id.value : 0;
}

wire::Message ack_all(const wire::Message&) { return wire::HeartbeatReply{}; }

RpcServerOptions push_options() {
  RpcServerOptions options;
  options.bind_key = notify_key;
  return options;
}

/// Resource keys of the Notify frames one client was pushed.
struct PushLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> keys;

  RpcClient::PushHandler handler() {
    return [this](wire::Message message) {
      if (const auto* notify = std::get_if<wire::Notify>(&message)) {
        std::lock_guard lock(mu);
        keys.push_back(notify->resource_key);
        cv.notify_all();
      }
    };
  }
  bool wait_for(std::size_t count) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return keys.size() >= count; });
  }
};

/// Connect and subscribe `key`, pushes going to `log`.
RpcClient subscribe(const RpcServer& server, std::uint64_t key, PushLog& log) {
  auto client = RpcClient::connect("127.0.0.1", server.port(), nullptr,
                                   nullptr, log.handler());
  EXPECT_TRUE(client.ok());
  EXPECT_TRUE(client.value().call(wire::Notify{ExecutorId{key}, 0}).ok());
  return std::move(client.value());
}

TEST(RpcPush, BoundConnectionReceivesPushesBetweenReplies) {
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, push_options()).ok());
  PushLog log;
  RpcClient client = subscribe(server, 77, log);
  // Bound before the subscription's reply went out.
  EXPECT_EQ(server.bound_keys(), 1u);

  for (std::uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(server.push(77, wire::Notify{ExecutorId{77}, k}).ok());
  }
  // Calls keep routing by correlation id with pushes on the same stream.
  auto reply = client.call(wire::StatusRequest{});
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<wire::HeartbeatReply>(reply.value()));
  ASSERT_TRUE(log.wait_for(5));
  std::lock_guard lock(log.mu);
  EXPECT_EQ(log.keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(server.active_connections(), 1u);
  client.close();
  server.stop();
}

TEST(RpcPush, PushToUnboundKeyIsNotFound) {
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, push_options()).ok());
  auto status = server.push(12345, wire::Notify{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(RpcPush, ErrorReplyUndoesTheBinding) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        if (notify_key(request) == 13) {
                          return wire::ErrorReply{ErrorCode::kNotFound, "no"};
                        }
                        return wire::HeartbeatReply{};
                      },
                      0, nullptr, push_options())
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client.value().call(wire::Notify{ExecutorId{13}, 0}).ok());
  EXPECT_EQ(server.bound_keys(), 0u);
  EXPECT_TRUE(client.value().call(wire::Notify{ExecutorId{14}, 0}).ok());
  EXPECT_EQ(server.bound_keys(), 1u);
  server.stop();
}

TEST(RpcPush, SlowSubscriberShedsInsteadOfBlocking) {
  // A subscriber that never reads must not wedge the server: once its
  // outbox passes the high watermark, push() sheds frames (counted in
  // falkon.net.push.backpressure_drops) and returns immediately.
  obs::Obs obs;
  RpcServerOptions options = push_options();
  options.obs = &obs;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, options).ok());

  // A raw socket subscribes, reads its reply, then stops reading.
  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(wire::write_frame(stream.value(), 1,
                                wire::encode_message(
                                    wire::Notify{ExecutorId{7}, 0}))
                  .ok());
  wire::Frame reply;
  ASSERT_TRUE(wire::read_frame(stream.value(), reply).ok());
  EXPECT_EQ(reply.corr, 1u);
  ASSERT_EQ(server.bound_keys(), 1u);

  auto& drops =
      obs.registry().counter("falkon.net.push.backpressure_drops");
  wire::WaitResultsReply big;
  TaskResult result;
  result.stdout_data = std::string(256 * 1024, 'x');
  big.results.push_back(std::move(result));
  for (int i = 0; i < 200 && drops.value() == 0; ++i) {
    // Never blocks and never errors: a full subscriber is shed, not waited
    // on (the protocol above recovers what was shed).
    ASSERT_TRUE(server.push(7, big).ok());
  }
  EXPECT_GE(drops.value(), 1u);
  EXPECT_EQ(server.bound_keys(), 1u);
  server.stop();
}

TEST(RpcPush, PushFromForeignThreadLandsOnOwningLoop) {
  // Subscribing pins each connection to loops[key % n_loops] (affinity_key),
  // and push() — called from threads that own no loop — must land every
  // frame on the owning loop and out the right socket.
  Reactor reactor(ReactorOptions{.n_loops = 4});
  ASSERT_TRUE(reactor.start().ok());
  RpcServerOptions options = push_options();
  options.reactor = &reactor;
  options.affinity_key = notify_key;
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, options).ok());

  constexpr std::uint64_t kSubscribers = 8;
  std::vector<PushLog> logs(kSubscribers);
  std::vector<RpcClient> clients;
  for (std::uint64_t key = 1; key <= kSubscribers; ++key) {
    clients.push_back(subscribe(server, key, logs[key - 1]));
  }
  ASSERT_EQ(server.bound_keys(), kSubscribers);
  reactor.barrier();
  reactor.barrier();  // second pass covers migrate -> target registration
  // Keys 1..8 map two connections to each of the four loops.
  const auto per_loop = reactor.connections_per_loop();
  for (std::size_t loop = 0; loop < per_loop.size(); ++loop) {
    EXPECT_EQ(per_loop[loop], 2u) << "loop " << loop;
  }

  for (std::uint64_t key = 1; key <= kSubscribers; ++key) {
    ASSERT_TRUE(server.push(key, wire::Notify{ExecutorId{key}, key + 7}).ok());
  }
  for (std::uint64_t key = 1; key <= kSubscribers; ++key) {
    PushLog& log = logs[key - 1];
    ASSERT_TRUE(log.wait_for(1)) << "key " << key;
    std::lock_guard lock(log.mu);
    EXPECT_EQ(log.keys, (std::vector<std::uint64_t>{key + 7})) << "key " << key;
  }
  for (auto& client : clients) client.close();
  server.stop();
  reactor.stop();
}

TEST(RpcPush, UnbindStopsPushesAndKeepsTheConnection) {
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, push_options()).ok());
  PushLog log;
  RpcClient client = subscribe(server, 9, log);
  ASSERT_EQ(server.bound_keys(), 1u);
  server.unbind(9);
  EXPECT_EQ(server.bound_keys(), 0u);
  auto status = server.push(9, wire::Notify{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
  // Only the binding ended: the connection still serves calls.
  EXPECT_TRUE(client.call(wire::StatusRequest{}).ok());
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(RpcPush, ResubscribeAfterStopGetsFrames) {
  // A closed connection takes its bindings with it; the same key
  // subscribed again on a new connection (a reconnecting executor or
  // failover client) gets the pushes.
  RpcServer server;
  ASSERT_TRUE(server.start(ack_all, 0, nullptr, push_options()).ok());
  PushLog first;
  {
    RpcClient client = subscribe(server, 5, first);
    client.close();
  }
  for (int i = 0; i < 200 && server.bound_keys() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.bound_keys(), 0u);
  EXPECT_FALSE(server.push(5, wire::Notify{ExecutorId{5}, 9}).ok());

  PushLog second;
  RpcClient client = subscribe(server, 5, second);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(server.push(5, wire::Notify{ExecutorId{5}, k}).ok());
  }
  ASSERT_TRUE(second.wait_for(3));
  {
    std::lock_guard lock(second.mu);
    EXPECT_EQ(second.keys, (std::vector<std::uint64_t>{1, 2, 3}));
  }
  std::lock_guard lock(first.mu);
  EXPECT_TRUE(first.keys.empty());
  client.close();
  server.stop();
}

TEST(Rpc, RunOnLoopServesAdmittedRequestsPastABusyPool) {
  // One pool worker, held by a slow request. A request the run_on_loop
  // predicate admits is answered on the loop meanwhile; one it rejects
  // queues behind the slow one.
  std::mutex mu;
  std::vector<std::uint8_t> tags;
  RpcServerOptions options;
  options.run_on_loop = [&](std::uint8_t tag, std::size_t bytes) {
    EXPECT_GT(bytes, 0u);
    std::lock_guard lock(mu);
    tags.push_back(tag);
    return static_cast<wire::MsgType>(tag) == wire::MsgType::kStatusRequest;
  };
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        if (std::get_if<wire::Notify>(&request) != nullptr) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(500));
                        }
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto slow_client = RpcClient::connect("127.0.0.1", server.port());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow_client.ok());
  ASSERT_TRUE(client.ok());

  std::thread slow([&] {
    EXPECT_TRUE(slow_client.value().call(wire::Notify{}).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  using Ms = std::chrono::duration<double, std::milli>;
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  EXPECT_LT(Ms(std::chrono::steady_clock::now() - start).count(), 200.0);

  start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.value().call(wire::Notify{}).ok());
  // Waited for the slow call's worker, then slept its own 500 ms.
  EXPECT_GT(Ms(std::chrono::steady_clock::now() - start).count(), 700.0);
  slow.join();
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(tags, (std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>(wire::MsgType::kNotify),
                        static_cast<std::uint8_t>(wire::MsgType::kStatusRequest),
                        static_cast<std::uint8_t>(wire::MsgType::kNotify)}));
  }
  server.stop();
}

// ---- buffered frame reads ---------------------------------------------

/// A connected loopback pair of blocking streams.
void connect_pair(TcpStream& writer, TcpStream& reader) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.value().accept();
  ASSERT_TRUE(accepted.ok());
  writer = client.take();
  reader = accepted.take();
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7 + (i >> 8));
  }
  return out;
}

TEST(Socket, SmallFramesFromOneSendmsgReadBackOneByOne) {
  TcpStream writer;
  TcpStream reader;
  ASSERT_NO_FATAL_FAILURE(connect_pair(writer, reader));
  std::vector<wire::PendingFrame> frames;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    frames.push_back({i, pattern_bytes(i % 5 == 0 ? 0 : 3 * i,
                                       static_cast<std::uint8_t>(i))});
  }
  std::vector<std::uint8_t> scratch;
  ASSERT_TRUE(
      wire::write_frames(writer, frames.data(), frames.size(), scratch).ok());
  wire::Frame frame;
  for (const auto& sent : frames) {
    ASSERT_TRUE(wire::read_frame(reader, frame).ok()) << "frame " << sent.corr;
    EXPECT_EQ(frame.corr, sent.corr);
    EXPECT_EQ(frame.payload, sent.payload) << "frame " << sent.corr;
    // The whole ~6 KiB batch sat in the socket before the first read, so
    // every frame but the last left later bytes in the read buffer.
    if (sent.corr == 1) {
      EXPECT_GT(reader.buffered(), 0u);
    }
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Socket, LargePayloadStraddlingBufferedPrefixArrivesIntact) {
  TcpStream writer;
  TcpStream reader;
  ASSERT_NO_FATAL_FAILURE(connect_pair(writer, reader));
  std::vector<wire::PendingFrame> frames;
  frames.push_back({1, pattern_bytes(40, 1)});
  frames.push_back({2, pattern_bytes(300 * 1024, 2)});
  frames.push_back({3, pattern_bytes(5, 3)});
  std::thread send([&] {
    std::vector<std::uint8_t> scratch;
    EXPECT_TRUE(
        wire::write_frames(writer, frames.data(), frames.size(), scratch).ok());
  });
  // Let the first refill find far more than the small frame queued.
  int queued = 0;
  for (int i = 0; i < 400 && queued < 8192; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(::ioctl(reader.fd(), FIONREAD, &queued), 0);
  }
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(reader, frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  EXPECT_EQ(frame.payload, frames[0].payload);
  // The refill after the small frame also took the big frame's header and
  // the first bytes of its payload; the rest is read straight into place.
  EXPECT_GT(reader.buffered(), wire::kFrameHeaderBytes);
  ASSERT_TRUE(wire::read_frame(reader, frame).ok());
  EXPECT_EQ(frame.corr, 2u);
  EXPECT_TRUE(frame.payload == frames[1].payload) << "large payload corrupted";
  ASSERT_TRUE(wire::read_frame(reader, frame).ok());
  EXPECT_EQ(frame.corr, 3u);
  EXPECT_EQ(frame.payload, frames[2].payload);
  send.join();
}

TEST(Socket, EofMidFrameStillReportsTruncation) {
  const auto read_after = [](const std::vector<std::uint8_t>& bytes) {
    TcpStream writer;
    TcpStream reader;
    connect_pair(writer, reader);
    if (!bytes.empty()) {
      EXPECT_TRUE(writer.write_all(bytes.data(), bytes.size()).ok());
    }
    writer = TcpStream();  // close: EOF right after `bytes`
    wire::Frame frame;
    return wire::read_frame(reader, frame);
  };
  std::vector<std::uint8_t> header(wire::kFrameHeaderBytes);
  wire::put_frame_header(header.data(), 9, 100);

  // Header promises 100 payload bytes, 10 arrive.
  std::vector<std::uint8_t> short_payload = header;
  short_payload.resize(header.size() + 10, 0xab);
  Status status = read_after(short_payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kProtocolError);
  EXPECT_NE(status.error().message.find("truncated"), std::string::npos);

  // Stream ends inside the header.
  status = read_after({header.begin(), header.begin() + 6});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kProtocolError);

  // A clean close at a frame boundary is kClosed, not a truncation.
  status = read_after({});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kClosed);
}

// ---- write-through sends ----------------------------------------------

/// A two-loop reactor owning one accepted connection, plus the raw client
/// end of that connection.
class WriteThrough : public ::testing::Test {
 protected:
  void open(int sndbuf_bytes = 0) {
    reactor_ = std::make_unique<Reactor>(
        ReactorOptions{.n_loops = 2, .obs = &obs_});
    ASSERT_TRUE(reactor_->start().ok());
    auto listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.ok());
    listener_ = listener.take();
    reactor_->add_listener(listener_.fd(), [this, sndbuf_bytes](int fd) {
      if (sndbuf_bytes > 0) (void)set_send_buffer(fd, sndbuf_bytes);
      auto conn = reactor_->adopt(
          fd,
          [](const std::shared_ptr<Reactor::Conn>&, std::uint64_t,
             std::vector<std::uint8_t>&&) {},
          [](const std::shared_ptr<Reactor::Conn>&) {});
      std::lock_guard<std::mutex> lock(mu_);
      conn_ = std::move(conn);
      cv_.notify_all();
    });
    auto client = TcpStream::connect("127.0.0.1", listener_.port());
    ASSERT_TRUE(client.ok());
    client_ = client.take();
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(5),
                             [this] { return conn_ != nullptr; }));
  }

  void TearDown() override {
    client_ = TcpStream();
    if (reactor_) {
      reactor_->remove_listener(listener_.fd());
      reactor_->stop();
    }
  }

  obs::Obs obs_;
  std::unique_ptr<Reactor> reactor_;
  TcpListener listener_;
  TcpStream client_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Reactor::Conn> conn_;
};

TEST_F(WriteThrough, ConcurrentSendersKeepFramesWholeAndInOrder) {
  // 8 producers write through one connection while its small send buffer
  // keeps spilling frames into the outbox, which the loop drains (and a
  // migration between the two loops hands over) mid-stream. Every frame
  // must arrive whole, and each sender's frames in the order it sent them.
  constexpr int kSenders = 8;
  constexpr std::uint32_t kFrames = 2000;
  ASSERT_NO_FATAL_FAILURE(open(/*sndbuf_bytes=*/4096));
  const auto payload_for = [](std::uint32_t sender, std::uint32_t seq) {
    std::vector<std::uint8_t> payload(16 + seq % 97);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(sender * 31 + seq + i);
    }
    return payload;
  };
  std::vector<std::thread> senders;
  for (std::uint32_t sender = 0; sender < kSenders; ++sender) {
    senders.emplace_back([&, sender] {
      for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
        const std::uint64_t corr =
            (static_cast<std::uint64_t>(sender) << 32) | seq;
        ASSERT_TRUE(conn_->send_frame(corr, payload_for(sender, seq)).ok());
      }
    });
  }
  for (std::uint64_t key = 1; key <= 4; ++key) conn_->set_affinity(key);
  // Read late, so the socket fills and the outbox must carry the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::vector<std::uint32_t> next(kSenders, 0);
  wire::Frame frame;
  for (std::uint32_t n = 0; n < kSenders * kFrames; ++n) {
    ASSERT_TRUE(wire::read_frame(client_, frame).ok()) << "frame " << n;
    const auto sender = static_cast<std::uint32_t>(frame.corr >> 32);
    const auto seq = static_cast<std::uint32_t>(frame.corr);
    ASSERT_LT(sender, static_cast<std::uint32_t>(kSenders));
    ASSERT_EQ(seq, next[sender]) << "sender " << sender << " out of order";
    ++next[sender];
    ASSERT_EQ(frame.payload, payload_for(sender, seq))
        << "sender " << sender << " frame " << seq << " corrupted";
  }
  for (auto& thread : senders) thread.join();
  EXPECT_GE(obs_.registry().counter("falkon.net.frames_coalesced").value(),
            1u)
      << "the loop never flushed queued frames";
}

TEST_F(WriteThrough, PartialDirectWriteFinishesThroughEpollout) {
  // A reply far larger than the send buffer the RPC server's sndbuf_bytes
  // knob leaves: the handler thread writes through what fits, the rest is
  // queued and the loop finishes it on EPOLLOUT.
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.n_loops = 2;
  options.sndbuf_bytes = 4096;
  const std::string body(256 * 1024, 'q');
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&body](const wire::Message&) -> wire::Message {
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{3};
                        result.stdout_data = body;
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());
  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(wire::write_frame(stream.value(), 5,
                                wire::encode_message(wire::Notify{}))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
  EXPECT_EQ(frame.corr, 5u);
  auto reply = wire::decode_message(frame.payload);
  ASSERT_TRUE(reply.ok());
  const auto* results = std::get_if<wire::WaitResultsReply>(&reply.value());
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->results.size(), 1u);
  EXPECT_TRUE(results->results[0].stdout_data == body);
  EXPECT_GE(obs.registry()
                .histogram("falkon.net.reactor.writable_stall_s", 1e-6, 10.0)
                .count(),
            1u);
  server.stop();
}

TEST_F(WriteThrough, PauseMarkerDelaysFramesQueuedAfterIt) {
  ASSERT_NO_FATAL_FAILURE(open());
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  wire::Frame frame;

  // The marker already consumed: two barriers let the loop take it and
  // park the connection, leaving the outbox empty — a send now must still
  // wait out the pause instead of writing through.
  ASSERT_TRUE(conn_->send_frame(1, payload).ok());
  conn_->pause_output(0.3);
  reactor_->barrier();
  reactor_->barrier();
  ASSERT_TRUE(conn_->send_frame(2, payload).ok());
  ASSERT_TRUE(wire::read_frame(client_, frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  EXPECT_LT(elapsed_s(), 0.25) << "the frame ahead of the marker waited";
  ASSERT_TRUE(wire::read_frame(client_, frame).ok());
  EXPECT_EQ(frame.corr, 2u);
  EXPECT_GE(elapsed_s(), 0.28) << "write-through skipped a parked pause";

  // The marker still queued: the frame behind it waits too.
  start = std::chrono::steady_clock::now();
  conn_->pause_output(0.3);
  ASSERT_TRUE(conn_->send_frame(3, payload).ok());
  ASSERT_TRUE(wire::read_frame(client_, frame).ok());
  EXPECT_EQ(frame.corr, 3u);
  EXPECT_GE(elapsed_s(), 0.28) << "write-through skipped a queued marker";
}

TEST_F(WriteThrough, SendAfterCloseReturnsClosedAndWritesNothing) {
  ASSERT_NO_FATAL_FAILURE(open());
  const std::vector<std::uint8_t> payload = {9, 9};
  conn_->close();
  Status status = conn_->send_frame(1, payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kClosed);
  EXPECT_EQ(conn_->send_raw({1, 2, 3}).error().code, ErrorCode::kClosed);
  // The peer sees a clean EOF with not one byte before it.
  wire::Frame frame;
  status = wire::read_frame(client_, frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kClosed);
  EXPECT_EQ(client_.buffered(), 0u);
}

}  // namespace
}  // namespace falkon::net
