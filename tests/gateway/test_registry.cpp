// Replica-registry health tests. The eject/readmit state machine is a pure
// function of probe outcomes (record_probe), so most tests run without any
// sockets; integration tests drive the probes of a started Gateway (they run
// on its event loop) against a live serve::Server and against stand-ins that
// answer fixed /healthz bodies.
#include "gateway/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "gateway/gateway.hpp"
#include "serve/server.hpp"

namespace {

using mcmm::gateway::Gateway;
using mcmm::gateway::GatewayConfig;
using mcmm::gateway::RegistryConfig;
using mcmm::gateway::ReplicaEndpoint;
using mcmm::gateway::ReplicaHealth;
using mcmm::gateway::ReplicaRegistry;

RegistryConfig no_probing() {
  RegistryConfig config;  // a bare registry never probes
  config.eject_after = 3;
  config.readmit_after = 2;
  return config;
}

std::vector<ReplicaEndpoint> endpoints(std::size_t n) {
  std::vector<ReplicaEndpoint> eps(n);
  for (std::size_t i = 0; i < n; ++i) {
    eps[i].port = static_cast<std::uint16_t>(9000 + i);
  }
  return eps;
}

TEST(ReplicaRegistry, StartsHealthy) {
  ReplicaRegistry registry(endpoints(3), no_probing());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.healthy_count(), 3u);
  std::vector<std::size_t> out;
  registry.eligible(out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ReplicaRegistry, EjectsAfterConsecutiveFailures) {
  ReplicaRegistry registry(endpoints(2), no_probing());
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.healthy_count(), 1u);
  EXPECT_EQ(registry.ejections_total(), 1u);
  std::vector<std::size_t> out;
  registry.eligible(out);
  EXPECT_EQ(out, (std::vector<std::size_t>{1}));
}

TEST(ReplicaRegistry, SuccessResetsTheFailureStreak) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, true, 0, 42);
  registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, ReadmissionGoesThroughHalfOpen) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  for (int i = 0; i < 3; ++i) registry.record_probe(0, false, 0, -1);
  ASSERT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);

  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::HalfOpen);
  EXPECT_EQ(registry.healthy_count(), 0u);  // half-open is not eligible

  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
  EXPECT_EQ(registry.healthy_count(), 1u);
}

TEST(ReplicaRegistry, HalfOpenFailureEjectsAgain) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  for (int i = 0; i < 3; ++i) registry.record_probe(0, false, 0, -1);
  registry.record_probe(0, true, 0, 42);
  ASSERT_EQ(registry.at(0).health.load(), ReplicaHealth::HalfOpen);

  registry.record_probe(0, false, 0, -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.ejections_total(), 2u);

  // Readmission still works after the relapse.
  registry.record_probe(0, true, 0, 42);
  registry.record_probe(0, true, 0, 42);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, SuccessfulProbeRefreshesLoadAndPid) {
  ReplicaRegistry registry(endpoints(1), no_probing());
  EXPECT_EQ(registry.at(0).pid.load(), -1);
  registry.record_probe(0, true, 7, 1234);
  EXPECT_EQ(registry.at(0).reported_in_flight.load(), 7u);
  EXPECT_EQ(registry.at(0).pid.load(), 1234);
  registry.at(0).in_flight.store(2);
  EXPECT_EQ(registry.at(0).load(), 9u);
}

TEST(ReplicaRegistry, LiveProberTracksAServer) {
  mcmm::serve::ServerConfig server_config;
  server_config.port = 0;
  server_config.threads = 2;
  auto server = std::make_unique<mcmm::serve::Server>(
      mcmm::data::paper_matrix(), server_config);
  server->start();

  GatewayConfig config;
  config.port = 0;
  config.threads = 1;
  config.registry.probe_interval_ms = 25;
  config.registry.probe_timeout_ms = 250;
  config.registry.eject_after = 2;
  config.registry.readmit_after = 1;
  std::vector<ReplicaEndpoint> eps(1);
  eps[0].port = server->port();
  Gateway gateway(std::move(eps), config);
  gateway.start();
  const ReplicaRegistry& registry = gateway.registry();

  // The prober should discover the replica's pid (our own, in-process).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.at(0).pid.load() <= 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(registry.at(0).pid.load(), 0);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);

  // Kill the replica; the prober must eject it.
  server.reset();
  while (registry.at(0).health.load() != ReplicaHealth::Ejected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Ejected);
  EXPECT_EQ(registry.healthy_count(), 0u);
}

/// A replica stand-in whose /healthz always answers 200 with `body`.
class FixedHealthReplica : public mcmm::serve::HttpListener {
 public:
  explicit FixedHealthReplica(std::string body)
      : HttpListener(listener_config()), body_(std::move(body)) {
    start();
  }
  ~FixedHealthReplica() override {
    shutdown();
    join();
  }

  [[nodiscard]] std::uint64_t probes() const noexcept {
    return probes_.load();
  }

 protected:
  mcmm::serve::Response handle_request(const mcmm::serve::Request&,
                                       const std::string&) override {
    mcmm::serve::Response resp;
    resp.body = body_;
    probes_.fetch_add(1);
    return resp;
  }

 private:
  static mcmm::serve::ListenerConfig listener_config() {
    mcmm::serve::ListenerConfig config;
    config.port = 0;
    config.threads = 1;
    return config;
  }

  std::string body_;
  std::atomic<std::uint64_t> probes_{0};
};

/// Probes `replica` from a gateway until it has answered twice, then stops
/// the gateway. A probe starts only after the previous one was recorded,
/// so the first answer is in the registry, and join() makes it visible.
std::unique_ptr<Gateway> probe_twice(const FixedHealthReplica& replica) {
  GatewayConfig config;
  config.port = 0;
  config.threads = 1;
  config.registry.probe_interval_ms = 10;
  config.registry.probe_timeout_ms = 250;
  std::vector<ReplicaEndpoint> eps(1);
  eps[0].port = replica.port();
  auto gateway = std::make_unique<Gateway>(std::move(eps), config);
  gateway->start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (replica.probes() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  gateway->shutdown();
  gateway->join();
  EXPECT_GE(replica.probes(), 2u);
  return gateway;
}

TEST(ReplicaRegistry, HarvestsOnlyTopLevelHealthMembers) {
  // A nested "in_flight" ahead of the real one must not be read as the
  // replica's load.
  const FixedHealthReplica replica(
      R"({"note":{"in_flight":99},"pid":7,"in_flight":3})");
  const auto gateway = probe_twice(replica);
  const ReplicaRegistry& registry = gateway->registry();
  EXPECT_EQ(registry.at(0).reported_in_flight.load(), 3u);
  EXPECT_EQ(registry.at(0).pid.load(), 7);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaRegistry, NonJsonHealthBodyHarvestsNothing) {
  // The replica answered 200, so it is alive, but a body that is not a
  // JSON document reports no load and no pid.
  const FixedHealthReplica replica(R"("in_flight":5 trailing)");
  const auto gateway = probe_twice(replica);
  const ReplicaRegistry& registry = gateway->registry();
  EXPECT_EQ(registry.at(0).reported_in_flight.load(), 0u);
  EXPECT_EQ(registry.at(0).pid.load(), -1);
  EXPECT_EQ(registry.at(0).health.load(), ReplicaHealth::Healthy);
}

TEST(ReplicaHealthNames, ToString) {
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::Healthy), "healthy");
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::Ejected), "ejected");
  EXPECT_STREQ(mcmm::gateway::to_string(ReplicaHealth::HalfOpen),
               "half-open");
}

}  // namespace
