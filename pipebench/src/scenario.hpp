// One workload instance: a world, the relying-party pipeline, the
// serving plane and its routers, run one closed-loop round at a time
// from "authorities publish" to "every router holds the new serial".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "detector/validity_index.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "routers.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"
#include "world.hpp"

namespace pipebench {

struct Workload {
    enum class Kind { Steady, Cold, Heavy };
    std::string name;
    Kind kind = Kind::Steady;
    double censusScale = 0.25;
    int opsPerRound = 4;
    unsigned faultPerMille = 0;   ///< first-attempt fetch failures (healed by retry)
    std::size_t fleetSessions = 1000;
};

/// The named workloads (steady-churn, cold-start, vrp-heavy) and the
/// oracle self-test's known-bad world (census-0.35). Null if unknown.
const Workload* findWorkload(const std::string& name);

/// What one round did and how long each stage took.
struct Round {
    std::uint64_t attempted = 0;    ///< round + fleet queries + TCP exchanges
    std::uint64_t failed = 0;
    double latencyMs = 0;           ///< round start -> last router applied End of Data
    double cpuMs = 0;               ///< process CPU over the same interval
    double rssMb = 0;               ///< resident set right after the round
    double fleetSeconds = 0;
    std::uint64_t fleetPolls = 0;
    TcpRouters::Result tcp;               ///< the TCP exchange, split per session
    std::vector<float> consumeUs;
    std::map<std::string, double> layer;  ///< per-layer values of this round
    std::string counters;           ///< byte-stable cost counters, one line
    std::string failure;            ///< first reason the oracle rejected the round
};

class Scenario {
public:
    Scenario(const Workload& workload, std::uint64_t seed, TcpRouters& tcp,
             obs::Registry& registry);
    ~Scenario();
    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// Runs one round; `traced` reads the global tracer's spans.
    Round run(bool traced);

    /// True once the world can no longer churn (signing keys nearly spent
    /// or manifests near expiry); the caller then builds a fresh one.
    bool exhausted() const;

    World& world() { return *world_; }

private:
    void startServing(std::uint16_t sessionId);
    void stopServing();

    const Workload& workload_;
    std::uint64_t seed_;
    TcpRouters& tcp_;
    obs::Registry& registry_;
    std::unique_ptr<World> world_;
    std::unique_ptr<Pipeline> pipeline_;
    std::unique_ptr<serve::EpochStore> store_;
    std::unique_ptr<serve::RtrCore> core_;
    std::unique_ptr<serve::RtrServer> server_;
    SimFleet fleet_;
    TruthBook truth_;
    std::shared_ptr<const PrefixValidityIndex> emptyIndex_;
    std::shared_ptr<const PrefixValidityIndex> prevIndex_;
    Time now_ = 0;
    std::uint32_t tick_ = 0;
    std::uint64_t coldRounds_ = 0;
    bool tcpConnected_ = false;
};

}  // namespace pipebench
