#include "core/fabric.h"

#include <string>

#include "common/logging.h"
#include "core/populate.h"

namespace netcache {

namespace {
constexpr IpAddress kServerIpBase = 0x0a000000;
constexpr IpAddress kClientIpBase = 0x0b000000;
constexpr IpAddress kTorIpBase = 0xffff1000;
constexpr IpAddress kSpineIpBase = 0xffff2000;
}  // namespace

Fabric::Fabric(const FabricConfig& config)
    : config_(config),
      partitioner_(config.num_racks * config.servers_per_rack, config.partition_seed) {
  NC_CHECK(config.num_racks > 0 && config.servers_per_rack > 0 && config.num_spines > 0);
  const size_t n = config.servers_per_rack;
  const size_t racks = config.num_racks;
  const size_t spines = config.num_spines;

  // ToR switches: ports [0, n) to servers, port n+s to spine s.
  for (size_t r = 0; r < racks; ++r) {
    SwitchConfig tc = config.tor_config;
    tc.switch_ip = kTorIpBase + static_cast<IpAddress>(r);
    size_t ports = n + spines;
    if (tc.num_pipes * tc.ports_per_pipe < ports) {
      tc.ports_per_pipe = (ports + tc.num_pipes - 1) / tc.num_pipes;
    }
    tors_.push_back(
        std::make_unique<NetCacheSwitch>(&sim_, "tor" + std::to_string(r), tc));
  }
  // Spine switches: port r to rack r, port `racks` to the attached client.
  for (size_t s = 0; s < spines; ++s) {
    SwitchConfig sc = config.spine_config;
    sc.switch_ip = kSpineIpBase + static_cast<IpAddress>(s);
    size_t ports = racks + 1;
    if (sc.num_pipes * sc.ports_per_pipe < ports) {
      sc.ports_per_pipe = (ports + sc.num_pipes - 1) / sc.num_pipes;
    }
    spines_.push_back(
        std::make_unique<NetCacheSwitch>(&sim_, "spine" + std::to_string(s), sc));
  }

  // Servers and their rack links.
  for (size_t g = 0; g < racks * n; ++g) {
    size_t rack = g / n;
    size_t local = g % n;
    ServerConfig sc = config.server_template;
    sc.ip = server_ip(g);
    sc.switch_ip = kTorIpBase + static_cast<IpAddress>(rack);
    servers_.push_back(
        std::make_unique<StorageServer>(&sim_, "server" + std::to_string(g), sc));
    auto link = std::make_unique<Link>(&sim_, config.link);
    link->Connect(tors_[rack].get(), static_cast<uint32_t>(local), servers_[g].get(), 0);
    links_.push_back(std::move(link));
    NC_CHECK(tors_[rack]->AddRoute(sc.ip, static_cast<uint32_t>(local)).ok());
  }

  // Fabric links: every ToR to every spine.
  LinkConfig fabric_link = config.link;
  if (config.fabric_propagation > 0) {
    fabric_link.propagation = config.fabric_propagation;
  }
  for (size_t r = 0; r < racks; ++r) {
    for (size_t s = 0; s < spines; ++s) {
      auto link = std::make_unique<Link>(&sim_, fabric_link);
      link->Connect(tors_[r].get(), static_cast<uint32_t>(n + s), spines_[s].get(),
                    static_cast<uint32_t>(r));
      links_.push_back(std::move(link));
    }
  }

  // Clients, one per spine.
  for (size_t s = 0; s < spines; ++s) {
    ClientConfig cc = config.client_template;
    cc.ip = client_ip(s);
    clients_.push_back(std::make_unique<Client>(&sim_, "client" + std::to_string(s), cc));
    auto link = std::make_unique<Link>(&sim_, config.link);
    link->Connect(spines_[s].get(), static_cast<uint32_t>(racks), clients_[s].get(), 0);
    links_.push_back(std::move(link));
  }

  // Routing.
  for (size_t s = 0; s < spines; ++s) {
    for (size_t g = 0; g < racks * n; ++g) {
      NC_CHECK(spines_[s]
                   ->AddRoute(server_ip(g), static_cast<uint32_t>(RackOfServer(g)))
                   .ok());
    }
    NC_CHECK(spines_[s]->AddRoute(client_ip(s), static_cast<uint32_t>(racks)).ok());
  }
  for (size_t r = 0; r < racks; ++r) {
    for (size_t s = 0; s < spines; ++s) {
      // Replies (and server-agent traffic) toward client s leave rack r
      // through the uplink to that client's spine.
      NC_CHECK(tors_[r]->AddRoute(client_ip(s), static_cast<uint32_t>(n + s)).ok());
    }
  }

  // Controllers for the caching tier.
  if (config.mode == FabricCacheMode::kSpineOnly) {
    for (size_t s = 0; s < spines; ++s) {
      auto ctl = std::make_unique<CacheController>(&sim_, spines_[s].get(),
                                                   config.controller_config, OwnerFn());
      for (size_t g = 0; g < racks * n; ++g) {
        ctl->RegisterServer(server_ip(g), servers_[g].get());
      }
      controllers_.push_back(std::move(ctl));
    }
  } else if (config.mode == FabricCacheMode::kLeafOnly) {
    for (size_t r = 0; r < racks; ++r) {
      auto ctl = std::make_unique<CacheController>(&sim_, tors_[r].get(),
                                                   config.controller_config, OwnerFn());
      for (size_t local = 0; local < n; ++local) {
        size_t g = r * n + local;
        ctl->RegisterServer(server_ip(g), servers_[g].get());
      }
      controllers_.push_back(std::move(ctl));
    }
  }

  if (config.sim_threads > 0) {
    // With 0 threads every node stays in LP 1, run inline. Partition layout:
    // LP 1+s = spine s + its client (independent ingress
    // pipelines), LP 1+spines+r = rack r (ToR + its servers). Only the
    // ToR<->spine hops cross partitions, so the lookahead is the fabric-hop
    // propagation delay. Controllers are not nodes; each is driven by exactly
    // one switch's reports (its own partition) plus global-stream pump events.
    for (size_t s = 0; s < spines; ++s) {
      spines_[s]->set_lp(static_cast<uint32_t>(1 + s));
      clients_[s]->set_lp(static_cast<uint32_t>(1 + s));
    }
    for (size_t r = 0; r < racks; ++r) {
      tors_[r]->set_lp(static_cast<uint32_t>(1 + spines + r));
    }
    for (size_t g = 0; g < racks * n; ++g) {
      servers_[g]->set_lp(static_cast<uint32_t>(1 + spines + g / n));
    }
    // Cache-update rejects deliver on the owning rack's LP stream; the
    // controller defers its cross-partition reaction onto the global stream
    // itself (CacheController::RegisterServer).
    sim_.ConfigurePartitions(spines + racks, config.sim_threads);
  }
  if (!controllers_.empty()) {
    // LP-context ScheduleGlobal calls (hot-report pump, reject deferral) all
    // carry at least one control-plane operation, in every layout.
    sim_.SetGlobalLookahead(config.controller_config.control_op_latency);
  }
}

IpAddress Fabric::server_ip(size_t global_index) const {
  return kServerIpBase + static_cast<IpAddress>(global_index);
}

IpAddress Fabric::client_ip(size_t spine) const {
  return kClientIpBase + static_cast<IpAddress>(spine);
}

IpAddress Fabric::OwnerOf(const Key& key) const {
  return server_ip(partitioner_.PartitionOf(key));
}

std::function<IpAddress(const Key&)> Fabric::OwnerFn() const {
  return [this](const Key& key) { return OwnerOf(key); };
}

void Fabric::Populate(uint64_t num_keys, size_t value_size) {
  PopulateStores(partitioner_, servers_, num_keys, value_size);
}

void Fabric::WarmCaches(const std::vector<Key>& keys) {
  if (config_.mode == FabricCacheMode::kSpineOnly) {
    // Hot items are replicated on every spine ("the hot items can be
    // replicated to all cache nodes", §2).
    for (auto& ctl : controllers_) {
      ctl->Warm(keys);
    }
  } else if (config_.mode == FabricCacheMode::kLeafOnly) {
    // Each ToR caches the hot items its own rack owns.
    for (size_t r = 0; r < config_.num_racks; ++r) {
      std::vector<Key> local;
      for (const Key& key : keys) {
        if (RackOfServer(partitioner_.PartitionOf(key)) == r) {
          local.push_back(key);
        }
      }
      controllers_[r]->Warm(local);
    }
  }
}

void Fabric::StartControllers() {
  for (auto& ctl : controllers_) {
    ctl->Start();
  }
}

uint64_t Fabric::TotalSpineHits() const {
  uint64_t total = 0;
  for (const auto& s : spines_) {
    total += s->counters().cache_hits;
  }
  return total;
}

uint64_t Fabric::TotalTorHits() const {
  uint64_t total = 0;
  for (const auto& t : tors_) {
    total += t->counters().cache_hits;
  }
  return total;
}

uint64_t Fabric::TotalServerReads() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->stats().reads;
  }
  return total;
}

}  // namespace netcache
