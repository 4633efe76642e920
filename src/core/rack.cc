#include "core/rack.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/populate.h"
#include "verify/rack_checkers.h"

namespace netcache {

namespace {
constexpr IpAddress kServerIpBase = 0x0a000000;
constexpr IpAddress kClientIpBase = 0x0b000000;
}  // namespace

Rack::Rack(const RackConfig& config)
    : config_(config), partitioner_(config.num_servers, config.partition_seed) {
  NC_CHECK(config.num_servers > 0);
  NC_CHECK(config.num_clients > 0);

  // Size the switch radix to the rack: servers first, then client uplinks.
  SwitchConfig sw = config_.switch_config;
  size_t ports_needed = config.num_servers + config.num_clients;
  if (sw.num_pipes * sw.ports_per_pipe < ports_needed) {
    sw.ports_per_pipe = (ports_needed + sw.num_pipes - 1) / sw.num_pipes;
  }
  config_.switch_config = sw;
  tor_ = std::make_unique<NetCacheSwitch>(&sim_, "tor", sw);

  for (size_t i = 0; i < config.num_servers; ++i) {
    ServerConfig sc = config.server_template;
    sc.ip = server_ip(i);
    sc.switch_ip = sw.switch_ip;
    servers_.push_back(
        std::make_unique<StorageServer>(&sim_, "server" + std::to_string(i), sc));
    auto link = std::make_unique<Link>(&sim_, config.server_link);
    link->Connect(tor_.get(), static_cast<uint32_t>(i), servers_[i].get(), 0);
    links_.push_back(std::move(link));
    NC_CHECK(tor_->AddRoute(sc.ip, static_cast<uint32_t>(i)).ok());
  }

  for (size_t j = 0; j < config.num_clients; ++j) {
    ClientConfig cc = config.client_template;
    cc.ip = client_ip(j);
    clients_.push_back(std::make_unique<Client>(&sim_, "client" + std::to_string(j), cc));
    uint32_t port = static_cast<uint32_t>(config.num_servers + j);
    auto link = std::make_unique<Link>(&sim_, config.client_link);
    link->Connect(tor_.get(), port, clients_[j].get(), 0);
    links_.push_back(std::move(link));
    NC_CHECK(tor_->AddRoute(cc.ip, port).ok());
  }

  if (config_.cache_enabled) {
    controller_ = std::make_unique<CacheController>(&sim_, tor_.get(),
                                                    config_.controller_config, OwnerFn());
    for (size_t i = 0; i < servers_.size(); ++i) {
      controller_->RegisterServer(server_ip(i), servers_[i].get());
    }
  }

  if (config_.sim_threads > 0) {
    // Partition layout: LP 1 = ToR + clients (every packet crosses the
    // switch, so splitting it from the clients would only add barrier
    // traffic), LP 2+i = server i. Only the ToR<->server links cross
    // partitions, so the lookahead is the server-link propagation delay.
    // With 0 threads every node stays in LP 1, run inline.
    tor_->set_lp(1);
    for (auto& client : clients_) {
      client->set_lp(1);
    }
    for (size_t i = 0; i < servers_.size(); ++i) {
      servers_[i]->set_lp(static_cast<uint32_t>(2 + i));
    }
    // Cache-update rejects deliver on the owning server's LP stream like any
    // other packet; the controller defers its cross-partition reaction onto
    // the global stream itself (CacheController::RegisterServer).
    sim_.ConfigurePartitions(1 + servers_.size(), config_.sim_threads);
  }
  if (config_.cache_enabled) {
    // Every ScheduleGlobal issued from LP context (hot-report pump, reject
    // deferral) carries at least one control-plane operation, so advertise
    // that as the global lookahead, in the one-LP layout too: rounds can run
    // up to t0 + control_op_latency before a new global event can exist.
    sim_.SetGlobalLookahead(config_.controller_config.control_op_latency);
  }

  // One namespace for the whole rack's telemetry.
  tor_->RegisterMetrics(metrics_, "switch", {{"component", "switch"}});
  for (size_t i = 0; i < servers_.size(); ++i) {
    std::string index = std::to_string(i);
    servers_[i]->RegisterMetrics(metrics_, "server." + index,
                                 {{"component", "server"}, {"index", index}});
  }
  for (size_t j = 0; j < clients_.size(); ++j) {
    std::string index = std::to_string(j);
    clients_[j]->RegisterMetrics(metrics_, "client." + index,
                                 {{"component", "client"}, {"index", index}});
  }
  if (controller_ != nullptr) {
    controller_->RegisterMetrics(metrics_, "controller", {{"component", "controller"}});
  }

  // Event-queue pressure. The peak is sampled at timestamp advances, which
  // makes it identical across --sim-threads values — the determinism legs
  // diff these through the metrics JSON byte-for-byte.
  metrics_.AddCounter("sim.events_dispatched",
                      [this] { return static_cast<double>(sim_.events_processed()); },
                      {{"component", "sim"}});
  metrics_.AddGauge("sim.event_queue_peak",
                    [this] { return static_cast<double>(sim_.event_queue_peak()); },
                    {{"component", "sim"}});
  for (size_t lp = 1; lp <= sim_.num_lps(); ++lp) {
    const std::string lp_prefix = "sim.lp" + std::to_string(lp);
    metrics_.AddCounter(
        lp_prefix + ".window_stalls",
        [this, lp] { return static_cast<double>(sim_.lp_window_stalls(lp)); },
        {{"component", "sim"}, {"lp", std::to_string(lp)}});
    metrics_.AddCounter(
        lp_prefix + ".windows_merged",
        [this, lp] { return static_cast<double>(sim_.lp_windows_merged(lp)); },
        {{"component", "sim"}, {"lp", std::to_string(lp)}});
    metrics_.AddCounter(
        lp_prefix + ".events",
        [this, lp] { return static_cast<double>(sim_.lp_events(lp)); },
        {{"component", "sim"}, {"lp", std::to_string(lp)}});
  }
  {
    // The busiest LP's event count over the mean: how unevenly the topology
    // spreads work across partitions (a schedule property, so identical at
    // any --sim-threads; worker balance is a profile question).
    metrics_.AddGauge("sim.lp_event_imbalance",
                      [this] {
                        uint64_t max = 0;
                        uint64_t total = 0;
                        for (size_t lp = 1; lp <= sim_.num_lps(); ++lp) {
                          max = std::max(max, sim_.lp_events(lp));
                          total += sim_.lp_events(lp);
                        }
                        return total == 0 ? 0.0
                                          : static_cast<double>(max) *
                                                static_cast<double>(sim_.num_lps()) /
                                                static_cast<double>(total);
                      },
                      {{"component", "sim"}});
  }
  metrics_.AddGauge("sim.avg_events_per_window",
                    [this] {
                      uint64_t w = sim_.windows_run();
                      return w == 0 ? 0.0
                                    : static_cast<double>(sim_.events_processed()) /
                                          static_cast<double>(w);
                    },
                    {{"component", "sim"}});
}

IpAddress Rack::server_ip(size_t i) const {
  return kServerIpBase + static_cast<IpAddress>(i);
}

IpAddress Rack::client_ip(size_t i) const {
  return kClientIpBase + static_cast<IpAddress>(i);
}

IpAddress Rack::OwnerOf(const Key& key) const {
  return server_ip(partitioner_.PartitionOf(key));
}

std::function<IpAddress(const Key&)> Rack::OwnerFn() const {
  return [this](const Key& key) { return OwnerOf(key); };
}

void Rack::Populate(uint64_t num_keys, size_t value_size) {
  PopulateStores(partitioner_, servers_, num_keys, value_size);
}

void Rack::WarmCache(const std::vector<Key>& keys) {
  NC_CHECK(config_.cache_enabled) << "WarmCache on a NoCache rack";
  controller_->Warm(keys);
}

void Rack::StartController() {
  NC_CHECK(config_.cache_enabled) << "StartController on a NoCache rack";
  controller_->Start();
}

CheckerRunner& Rack::EnableInvariantChecks(SimDuration interval) {
  if (verifier_ != nullptr) {
    return *verifier_;
  }
  verifier_ = std::make_unique<CheckerRunner>(&sim_);

  // Ground-truth shadow tracking so the sketch-soundness checker has exact
  // counts to compare the probabilistic structures against. Must be on
  // before traffic flows; checks pass vacuously for earlier queries.
  tor_->query_stats().EnableShadowTracking();

  verifier_->AddChecker(std::make_unique<CacheCoherenceChecker>(
      tor_.get(), [this](const Key& key) -> const StorageServer* {
        return servers_[partitioner_.PartitionOf(key)].get();
      }));
  verifier_->AddChecker(std::make_unique<SlotConsistencyChecker>(tor_.get()));
  verifier_->AddChecker(std::make_unique<SketchSoundnessChecker>(&tor_->query_stats()));

  std::vector<const Link*> links;
  for (const auto& link : links_) {
    links.push_back(link.get());
  }
  std::vector<const Client*> clients;
  for (const auto& client : clients_) {
    clients.push_back(client.get());
  }
  std::vector<const StorageServer*> servers;
  for (const auto& server : servers_) {
    servers.push_back(server.get());
  }
  verifier_->AddChecker(std::make_unique<PacketConservationChecker>(
      std::move(links), std::move(clients), std::move(servers), tor_.get()));

  verifier_->RegisterMetrics(metrics_, "verify", {{"component", "verify"}});
  if (interval > 0) {
    verifier_->Start(interval);
  }
  return *verifier_;
}

}  // namespace netcache
