// Validated, user-facing description of the machine shape: how many IPUs,
// how many tiles each, and how the chips are linked.
//
// `Topology` replaces ad-hoc poking of raw `IpuTarget` fields. It is a small
// value type with named builders:
//
//   auto solo = Topology::singleIpu(64);                 // one chip
//   auto pod  = Topology::pod(4, 16);                    // 4 IPUs x 16 tiles
//   auto m2k  = Topology::pod(16, 1472, LinkModel::mk2());
//
// A Topology always yields a fully-populated `IpuTarget` via `target()`, so
// the cycle model, Graph and Engine need no new plumbing; and it carries a
// stable fingerprint so plan caches can key compiled pipelines on the shape
// they were built for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ipu/target.hpp"

namespace graphene::ipu {

/// IPU-Link interconnect parameters for a pod. Defaults follow public Mk2 /
/// IPU-POD specifications (64 GB/s per link direction, 10 links per chip,
/// ~0.5 us latency).
struct LinkModel {
  double bytesPerSecond = 64e9;
  double latencyCycles = 600.0;
  std::size_t linksPerIpu = 10;
  /// Coalesce all cross-IPU messages between an IPU pair into one link
  /// transfer per superstep (halo aggregation).
  bool aggregateHalo = true;

  static LinkModel mk2() { return LinkModel{}; }

  bool operator==(const LinkModel& o) const {
    return bytesPerSecond == o.bytesPerSecond &&
           latencyCycles == o.latencyCycles && linksPerIpu == o.linksPerIpu &&
           aggregateHalo == o.aggregateHalo;
  }
  bool operator!=(const LinkModel& o) const { return !(*this == o); }
};

class Topology {
 public:
  /// Default: one full Mk2 chip.
  Topology();

  /// One chip with `tiles` tiles (the shape every pre-pod entry point used).
  static Topology singleIpu(std::size_t tiles);

  /// A pod of `ipus` chips x `tilesPerIpu` tiles, linked per `link`.
  static Topology pod(std::size_t ipus, std::size_t tilesPerIpu,
                      LinkModel link = LinkModel{});

  /// Adopts an existing target verbatim (shim for code that already built an
  /// IpuTarget by hand); link parameters are read back off the target.
  static Topology fromTarget(const IpuTarget& target);

  std::size_t numIpus() const { return target_.numIpus; }
  std::size_t tilesPerIpu() const { return target_.tilesPerIpu; }
  std::size_t totalTiles() const { return target_.totalTiles(); }
  bool isPod() const { return target_.numIpus > 1; }

  /// The elastic-shrink view: the same machine shape with some chips marked
  /// dead. Tile and chip numbering stay stable (so fault rules, blacklists
  /// and traces keep meaning across a shrink); partitioning, control-tile
  /// selection and link re-routing skip the dead set. The dead set is part
  /// of the fingerprint: a plan built for the full pod must never be
  /// replayed on the shrunken one.
  Topology withoutIpus(const std::vector<std::size_t>& dead) const;
  const std::vector<std::size_t>& deadIpus() const { return deadIpus_; }
  bool ipuAlive(std::size_t ipu) const;
  std::size_t numAliveIpus() const { return target_.numIpus - deadIpus_.size(); }
  std::size_t numAliveTiles() const {
    return target_.totalTiles() - deadIpus_.size() * target_.tilesPerIpu;
  }

  /// The fully-populated machine description consumed by Context/Graph and
  /// the cycle model.
  const IpuTarget& target() const { return target_; }

  /// Escape hatch for tests that shrink SRAM, change clocks, etc. Shape and
  /// link fields should be set through the builders instead.
  IpuTarget& mutableTarget() { return target_; }

  LinkModel link() const;

  /// Stable FNV-1a fingerprint over the machine shape and link model. Plan
  /// caches mix this into structure fingerprints: a pipeline compiled for
  /// 1x64 must never be replayed on 4x16.
  std::uint64_t fingerprint() const;

  /// Human-readable shape, e.g. "4 IPU x 16 tiles".
  std::string describe() const;

  bool operator==(const Topology& o) const;
  bool operator!=(const Topology& o) const { return !(*this == o); }

 private:
  explicit Topology(IpuTarget target) : target_(target) {}
  IpuTarget target_;
  std::vector<std::size_t> deadIpus_;  // sorted, unique, < numIpus
};

}  // namespace graphene::ipu

namespace graphene {
// The ISSUE-facing spelling: graphene::Topology.
using Topology = ipu::Topology;
using LinkModel = ipu::LinkModel;
}  // namespace graphene
