#include "freq/frequency_set.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "core/worker_pool.h"
#include "freq/substrate.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"

namespace incognito {

namespace {

std::vector<size_t> Cardinalities(const QuasiIdentifier& qid,
                                  const SubsetNode& node) {
  std::vector<size_t> cards;
  cards.reserve(node.size());
  for (size_t i = 0; i < node.size(); ++i) {
    cards.push_back(qid.hierarchy(static_cast<size_t>(node.dims[i]))
                        .DomainSize(static_cast<size_t>(node.levels[i])));
  }
  return cards;
}

/// One group-by build ran on its key width's engine (OBSERVABILITY.md).
void CountEngine(const KeyCodec& codec) {
  if (codec.packed()) {
    INCOGNITO_COUNT("freq.substrate_radix");
  } else {
    INCOGNITO_COUNT("freq.substrate_flat");
  }
}

/// Coalesces a key-sorted (key, count) run into unique groups with an
/// exact-capacity reserve — `out` must be empty so its final capacity is
/// the group count (and each copied vector key is exact-size too).
template <typename Key>
void Coalesce(const std::vector<std::pair<Key, int64_t>>& all,
              std::vector<std::pair<Key, int64_t>>* out) {
  size_t unique = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].first != all[i - 1].first) ++unique;
  }
  out->reserve(unique);
  for (size_t i = 0; i < all.size();) {
    Key key = all[i].first;
    int64_t count = 0;
    for (; i < all.size() && all[i].first == key; ++i) count += all[i].second;
    out->emplace_back(std::move(key), count);
  }
}

}  // namespace

FrequencySet FrequencySet::MakeEmpty(const SubsetNode& node,
                                     const QuasiIdentifier& qid) {
  FrequencySet fs;
  fs.node_ = node;
  fs.codec_ = KeyCodec::Create(Cardinalities(qid, node));
  fs.packed_ = fs.codec_.packed();
  return fs;
}

std::vector<FrequencySet> FrequencySet::ComputeBatch(
    const Table& table, const QuasiIdentifier& qid,
    const std::vector<SubsetNode>& nodes, WorkerPool* pool,
    ExecutionGovernor* governor) {
  std::vector<FrequencySet> out;
  out.reserve(nodes.size());
  for (const SubsetNode& node : nodes) {
    assert(node.size() > 0);
    out.push_back(MakeEmpty(node, qid));
  }
  if (nodes.empty()) return out;
  INCOGNITO_SPAN("freq.scan");
  INCOGNITO_PHASE_TIMER("phase.freq_scan_seconds");
  INCOGNITO_HIST_TIMER("freq.build_seconds");
  INCOGNITO_COUNT_ADD("freq.scan_rows",
                      static_cast<int64_t>(table.num_rows()));

  const size_t b = nodes.size();
  const size_t rows = table.num_rows();
  // Per-node encoded columns and base→level generalization maps.
  std::vector<std::vector<const int32_t*>> cols(b);
  std::vector<std::vector<const int32_t*>> maps(b);
  bool any_packed = false;
  for (size_t j = 0; j < b; ++j) {
    const size_t n = nodes[j].size();
    cols[j].resize(n);
    maps[j].resize(n);
    for (size_t i = 0; i < n; ++i) {
      size_t d = static_cast<size_t>(nodes[j].dims[i]);
      cols[j][i] = table.ColumnCodes(qid.column(d)).data();
      maps[j][i] = qid.hierarchy(d)
                       .BaseToLevelMap(static_cast<size_t>(nodes[j].levels[i]))
                       .data();
    }
    CountEngine(out[j].codec_);
    any_packed = any_packed || out[j].packed_;
  }

  const size_t workers =
      pool != nullptr && pool->size() > 1 ? static_cast<size_t>(pool->size())
                                          : 1;
  if (workers > 1) {
    INCOGNITO_COUNT("freq.parallel_scans");
    INCOGNITO_COUNT_ADD("freq.scan_chunks", static_cast<int64_t>(workers));
  }

  // Per-worker, per-node partial sets, merged after the scan in worker-id
  // order: sorted unique (key, count) runs for packed nodes, flat maps for
  // wide ones.
  std::vector<std::vector<std::vector<std::pair<uint64_t, int64_t>>>> wpart(
      workers, std::vector<std::vector<std::pair<uint64_t, int64_t>>>(b));
  std::vector<std::vector<std::unique_ptr<FlatCodeMap>>> wflat(workers);
  for (auto& flat : wflat) flat.resize(b);

  std::vector<std::unique_ptr<GovernorShard>> shards;
  if (governor != nullptr) {
    shards.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      shards.push_back(std::make_unique<GovernorShard>(governor));
    }
  }
  constexpr size_t kCheckEveryRows = 16384;

  auto scan_chunk = [&](int w, size_t begin, size_t end) {
    INCOGNITO_SPAN("freq.scan.chunk");
    const size_t wi = static_cast<size_t>(w);
    GovernorShard* shard = governor != nullptr ? shards[wi].get() : nullptr;
    if (shard != nullptr) {
      if (!shard->Check().ok()) return;
      // Fault site "freq.batch.scan": an injected allocation failure at
      // the start of a row chunk latches like a refused charge; sibling
      // chunks stop at their next checkpoint.
      if (INCOGNITO_FAULT_FIRED("freq.batch.scan")) {
        governor->LatchInjectedFailure("freq.batch.scan");
        return;
      }
    }
    const size_t chunk_rows = end - begin;
    if (chunk_rows == 0) return;
    // Monotonic footprint ledger over every node this chunk feeds:
    // finished partials plus the live flat map.
    int64_t charged = 0;
    int64_t done_bytes = 0;
    auto charge_to = [&](int64_t now) {
      if (shard == nullptr) return true;
      if (now > charged) {
        if (!shard->ChargeMemory(now - charged).ok()) return false;
        charged = now;
      }
      return true;
    };
    if (any_packed) {
      // The gather + scratch buffers are charged before they exist and
      // released when they die.
      const int64_t buffer_bytes =
          static_cast<int64_t>(2 * chunk_rows * sizeof(uint64_t));
      if (shard != nullptr && !shard->ChargeMemory(buffer_bytes).ok()) return;
      bool ok = true;
      {
        std::function<bool()> tick;
        if (shard != nullptr) {
          tick = [shard] { return shard->Check().ok(); };
        }
        std::vector<uint64_t> keys;
        std::vector<uint64_t> scratch;
        for (size_t j = 0; j < b && ok; ++j) {
          if (!out[j].packed_) continue;
          // Order-preserving packing makes the sorted key run the
          // canonical group order, so run-length extraction finishes it.
          GatherPackedKeys(cols[j], maps[j], out[j].codec_, begin, end,
                           &keys);
          ok = RadixSortKeys(keys, scratch, out[j].codec_.total_bits(), tick);
          if (ok) {
            const size_t groups = ExtractGroups(keys, &wpart[wi][j]);
            done_bytes += static_cast<int64_t>(
                groups * sizeof(std::pair<uint64_t, int64_t>));
            ok = charge_to(done_bytes);
          }
        }
      }
      if (shard != nullptr) shard->ReleaseMemory(buffer_bytes);
      if (!ok) return;
    }
    for (size_t j = 0; j < b; ++j) {
      if (out[j].packed_) continue;
      const size_t n = nodes[j].size();
      wflat[wi][j] = std::make_unique<FlatCodeMap>(n, chunk_rows / 4 + 8);
      FlatCodeMap& agg = *wflat[wi][j];
      auto checkpoint = [&] {
        if (shard == nullptr) return true;
        return shard->Check().ok() &&
               charge_to(done_bytes + static_cast<int64_t>(agg.MemoryBytes()));
      };
      std::vector<int32_t> codes(n);
      for (size_t r = begin; r < end; ++r) {
        if ((r - begin) % kCheckEveryRows == 0 && !checkpoint()) return;
        for (size_t i = 0; i < n; ++i) codes[i] = maps[j][i][cols[j][i][r]];
        agg.Add(codes.data(), 1);
      }
      if (!checkpoint()) return;
      done_bytes += static_cast<int64_t>(agg.MemoryBytes());
    }
  };
  if (workers > 1) {
    pool->Run(rows, scan_chunk);
  } else {
    scan_chunk(0, 0, rows);
  }

  // Transient charges return to the governor here; a trip (if any) is
  // already latched shared, so the caller's SharedTrip() check sees it.
  for (auto& shard : shards) shard->Drain();
  if (governor != nullptr && !governor->SharedTrip().ok()) {
    for (size_t j = 0; j < b; ++j) out[j] = MakeEmpty(nodes[j], qid);
    return out;
  }

  // Merge each node's partials in worker-id order, coalesce equal keys and
  // sort canonically into an exact-capacity array. One packed partial is
  // already that: ExtractGroups reserved exactly into an empty vector.
  for (size_t j = 0; j < b; ++j) {
    FrequencySet& fs = out[j];
    if (fs.packed_ && workers == 1) {
      fs.groups_ = std::move(wpart[0][j]);
    } else if (fs.packed_) {
      std::vector<std::pair<uint64_t, int64_t>> all;
      size_t total = 0;
      for (size_t w = 0; w < workers; ++w) total += wpart[w][j].size();
      all.reserve(total);
      for (size_t w = 0; w < workers; ++w) {
        all.insert(all.end(), wpart[w][j].begin(), wpart[w][j].end());
      }
      std::sort(all.begin(), all.end());
      Coalesce(all, &fs.groups_);
    } else {
      std::vector<std::pair<std::vector<int32_t>, int64_t>> all;
      size_t total = 0;
      for (size_t w = 0; w < workers; ++w) {
        total += wflat[w][j] != nullptr ? wflat[w][j]->size() : 0;
      }
      all.reserve(total);
      for (size_t w = 0; w < workers; ++w) {
        if (wflat[w][j] != nullptr) wflat[w][j]->AppendTo(&all);
      }
      std::sort(all.begin(), all.end());
      Coalesce(all, &fs.vgroups_);
    }
    fs.total_count_ = static_cast<int64_t>(rows);
  }
  return out;
}

FrequencySet FrequencySet::Compute(const Table& table,
                                   const QuasiIdentifier& qid,
                                   const SubsetNode& node) {
  INCOGNITO_COUNT("freq.scans");
  return std::move(ComputeBatch(table, qid, {node})[0]);
}

template <typename Recode>
FrequencySet FrequencySet::Regroup(const SubsetNode& target,
                                   const QuasiIdentifier& qid,
                                   Recode recode) const {
  FrequencySet out = MakeEmpty(target, qid);
  std::vector<int32_t> codes(target.size());
  if (out.packed_) {
    // Weighted radix: pack each source group's target codes once,
    // stable-sort the (key, count) pairs, coalesce. Order-preserving
    // packing again makes the sorted run the canonical order.
    std::vector<std::pair<uint64_t, int64_t>> items;
    items.reserve(NumGroups());
    ForEachGroup([&](const int32_t* src, int64_t count) {
      recode(src, codes.data());
      items.emplace_back(out.codec_.Pack(codes.data()), count);
    });
    std::vector<std::pair<uint64_t, int64_t>> scratch;
    RadixSortCounted(items, scratch, out.codec_.total_bits());
    Coalesce(items, &out.groups_);
  } else {
    // Regrouping only merges groups, so the source group count bounds the
    // output size.
    FlatCodeMap agg(target.size(), NumGroups());
    ForEachGroup([&](const int32_t* src, int64_t count) {
      recode(src, codes.data());
      agg.Add(codes.data(), count);
    });
    agg.AppendTo(&out.vgroups_);
    out.SortGroups();
  }
  out.total_count_ = total_count_;
  return out;
}

FrequencySet FrequencySet::RollupTo(const SubsetNode& target,
                                    const QuasiIdentifier& qid) const {
  assert(target.dims == node_.dims);
  INCOGNITO_SPAN("freq.rollup");
  INCOGNITO_PHASE_TIMER("phase.rollup_seconds");
  INCOGNITO_HIST_TIMER("freq.build_seconds");
  INCOGNITO_COUNT("freq.rollups");
  INCOGNITO_COUNT_ADD("freq.rollup_groups",
                      static_cast<int64_t>(NumGroups()));
  const size_t n = node_.size();
  // Per-dimension remap tables from this node's level to the target level.
  std::vector<std::vector<int32_t>> remap(n);
  for (size_t i = 0; i < n; ++i) {
    assert(target.levels[i] >= node_.levels[i]);
    const ValueHierarchy& h = qid.hierarchy(static_cast<size_t>(node_.dims[i]));
    size_t from = static_cast<size_t>(node_.levels[i]);
    size_t to = static_cast<size_t>(target.levels[i]);
    remap[i].resize(h.DomainSize(from));
    for (size_t c = 0; c < remap[i].size(); ++c) {
      remap[i][c] = h.GeneralizeFrom(from, static_cast<int32_t>(c), to);
    }
  }
  return Regroup(target, qid, [&](const int32_t* src, int32_t* dst) {
    for (size_t i = 0; i < n; ++i) {
      dst[i] = remap[i][static_cast<size_t>(src[i])];
    }
  });
}

FrequencySet FrequencySet::ProjectTo(const SubsetNode& target,
                                     const QuasiIdentifier& qid) const {
  INCOGNITO_SPAN("freq.projection");
  INCOGNITO_PHASE_TIMER("phase.projection_seconds");
  INCOGNITO_COUNT("freq.projections");
  const size_t m = target.size();
  // Positions of the kept dims within this node's dim list.
  std::vector<size_t> pos(m);
  for (size_t j = 0; j < m; ++j) {
    auto it = std::find(node_.dims.begin(), node_.dims.end(), target.dims[j]);
    assert(it != node_.dims.end());
    pos[j] = static_cast<size_t>(it - node_.dims.begin());
    assert(target.levels[j] == node_.levels[pos[j]]);
  }
  FrequencySet out = Regroup(target, qid, [&](const int32_t* src,
                                              int32_t* dst) {
    for (size_t j = 0; j < m; ++j) dst[j] = src[pos[j]];
  });
  CountEngine(out.codec_);
  return out;
}

void FrequencySet::SortGroups() {
  // Keys are unique, so sorting the pairs sorts by key; for the packed
  // path ascending keys equal ascending lexicographic code vectors
  // because KeyCodec::Pack is order-preserving.
  if (packed_) {
    std::sort(groups_.begin(), groups_.end());
  } else {
    std::sort(vgroups_.begin(), vgroups_.end());
  }
}

int64_t FrequencySet::MinCount() const {
  int64_t min_count = 0;
  bool first = true;
  auto visit = [&](int64_t count) {
    if (first || count < min_count) {
      min_count = count;
      first = false;
    }
  };
  if (packed_) {
    for (const auto& [key, count] : groups_) {
      (void)key;
      visit(count);
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      (void)key;
      visit(count);
    }
  }
  return first ? 0 : min_count;
}

int64_t FrequencySet::TuplesBelowK(int64_t k) const {
  int64_t below = 0;
  if (packed_) {
    for (const auto& [key, count] : groups_) {
      (void)key;
      if (count < k) below += count;
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      (void)key;
      if (count < k) below += count;
    }
  }
  return below;
}

void FrequencySet::ForEachGroup(
    const std::function<void(const int32_t* codes, int64_t count)>& fn) const {
  if (packed_) {
    std::vector<int32_t> codes(node_.size());
    for (const auto& [key, count] : groups_) {
      codec_.Unpack(key, codes.data());
      fn(codes.data(), count);
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      fn(key.data(), count);
    }
  }
}

template <typename Visit>
void FrequencySet::ForEachRun(Visit visit) const {
  if (packed_) {
    // S is the lowest field, so a QID group's keys agree above its bits.
    const uint8_t shift = codec_.bits(node_.size() - 1);
    for (size_t i = 0; i < groups_.size();) {
      const uint64_t qid_key = groups_[i].first >> shift;
      int64_t count = 0;
      size_t j = i;
      for (; j < groups_.size() && groups_[j].first >> shift == qid_key; ++j) {
        count += groups_[j].second;
      }
      visit(i, count, static_cast<int64_t>(j - i));
      i = j;
    }
  } else {
    const size_t qid_fields = node_.size() - 1;
    for (size_t i = 0; i < vgroups_.size();) {
      const int32_t* qid_codes = vgroups_[i].first.data();
      int64_t count = 0;
      size_t j = i;
      for (; j < vgroups_.size() &&
             std::equal(qid_codes, qid_codes + qid_fields,
                        vgroups_[j].first.data());
           ++j) {
        count += vgroups_[j].second;
      }
      visit(i, count, static_cast<int64_t>(j - i));
      i = j;
    }
  }
}

int64_t FrequencySet::TuplesViolating(int64_t k, int64_t l) const {
  int64_t violating = 0;
  ForEachRun([&](size_t, int64_t count, int64_t distinct) {
    if (count < k || distinct < l) violating += count;
  });
  return violating;
}

void FrequencySet::ForEachQidGroup(
    const std::function<void(const int32_t* codes, int64_t count,
                             int64_t distinct)>& fn) const {
  std::vector<int32_t> codes(node_.size());
  ForEachRun([&](size_t first, int64_t count, int64_t distinct) {
    if (packed_) {
      codec_.Unpack(groups_[first].first, codes.data());
      fn(codes.data(), count, distinct);
    } else {
      fn(vgroups_[first].first.data(), count, distinct);
    }
  });
}

size_t FrequencySet::MemoryBytes() const {
  if (packed_) {
    return groups_.capacity() * sizeof(groups_[0]);
  }
  size_t bytes = vgroups_.capacity() * sizeof(vgroups_[0]);
  for (const auto& [key, count] : vgroups_) {
    (void)count;
    bytes += key.capacity() * sizeof(int32_t);
  }
  return bytes;
}

}  // namespace incognito
