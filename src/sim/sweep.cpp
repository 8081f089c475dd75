#include "sim/sweep.hpp"

#include <numeric>
#include <span>
#include <sstream>
#include <utility>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/megabatch.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_io.hpp"
#include "sim/vector_scenario.hpp"

namespace ftmao {

std::vector<CellSpec> sweep_cell_specs(const GridSpec& grid) {
  std::vector<CellSpec> specs;
  specs.reserve(grid.sizes.size() * grid.dims.size() * grid.attacks.size());
  for (const auto& [n, f] : grid.sizes)
    for (std::size_t dim : grid.dims)
      for (AttackKind attack : grid.attacks)
        specs.push_back({n, f, dim, attack});
  return specs;
}

std::string sweep_cell_cache_spec(const GridSpec& grid,
                                  const CellSpec& spec) {
  std::ostringstream os;
  os << "sweep;family=std-mixed;n=" << spec.n << ";f=" << spec.f
     << ";dim=" << spec.dim << ";attack=" << attack_kind_name(spec.attack)
     << ";spread=" << cache_canon_double(grid.spread)
     << ";rounds=" << grid.rounds << ";step=" << format_step(grid.step)
     << ";seeds=" << format_seeds(grid.seeds) << ";constraint=none";
  if (grid.async_engine) {
    os << ";engine=async;delay=" << delay_kind_name(grid.delay_kind) << ':'
       << cache_canon_double(grid.delay_lo) << ':'
       << cache_canon_double(grid.delay_hi);
  } else {
    os << ";engine=sync";
  }
  return os.str();
}

namespace {

// A sweep cell reads only each run's final disagreement and distance, so
// the sync runs skip the per-round series: a 4000-round, 32-replica task
// otherwise holds ~3 MiB of metric values nobody reads.
const RunOptions kFinalsOnly{.record_series = false};

// The one scheduling path: pack pending (cell, seed) replicas that share
// an engine shape — any attack, any seed — into lane-filling batches
// (sim/megabatch.hpp) and submit them cost-ordered, longest first. Under
// scalar_engine the plan is batch-1 tasks run on the reference engines.
// Every replica derives its randomness solely from its own seed and
// scatters into its own pre-assigned slot, and the batch engines are
// bit-identical to the reference engines per replica regardless of batch
// composition, so the aggregate is the same whatever the thread count,
// batch size, engine, or cache hit pattern.
void run_pending(const SweepConfig& config, const std::vector<CellSpec>& specs,
                 const std::vector<std::size_t>& pending,
                 std::vector<double>& disagreements,
                 std::vector<double>& dists) {
  const std::size_t num_seeds = config.seeds.size();
  std::vector<MegabatchItem> items;
  items.reserve(pending.size() * num_seeds);
  for (std::size_t c : pending) {
    const CellSpec& spec = specs[c];
    MegabatchKey key;
    key.engine = config.async_engine ? MegabatchEngine::kAsync
                 : spec.dim >= 2     ? MegabatchEngine::kVector
                                     : MegabatchEngine::kSync;
    key.n = spec.n;
    key.f = spec.f;
    key.dim = spec.dim;
    for (std::size_t i = 0; i < num_seeds; ++i) items.push_back({key, c, i});
  }
  const MegabatchPlan plan = plan_megabatches(
      std::move(items), config.scalar_engine ? 1 : config.batch_size,
      config.rounds);
  parallel_for_each(
      config.num_threads, plan.tasks.size(), [&](std::size_t ti) {
        const MegabatchTask& task = plan.tasks[ti];
        const std::span<const MegabatchItem> batch(
            plan.items.data() + task.first, task.count);
        auto scatter = [&](std::size_t i, double disagreement, double dist) {
          const std::size_t slot = batch[i].cell * num_seeds + batch[i].seed;
          disagreements[slot] = disagreement;
          dists[slot] = dist;
        };
        switch (task.key.engine) {
          case MegabatchEngine::kAsync: {
            std::vector<AsyncScenario> replicas;
            replicas.reserve(batch.size());
            for (const MegabatchItem& it : batch) {
              const CellSpec& spec = specs[it.cell];
              AsyncScenario s = make_standard_async_scenario(
                  spec.n, spec.f, config.spread, spec.attack, config.rounds,
                  config.seeds[it.seed]);
              s.step = config.step;
              s.delay_kind = config.delay_kind;
              s.delay_lo = config.delay_lo;
              s.delay_hi = config.delay_hi;
              replicas.push_back(std::move(s));
            }
            const std::vector<AsyncRunMetrics> ms =
                run_replicas(replicas, config.scalar_engine);
            for (std::size_t i = 0; i < batch.size(); ++i)
              scatter(i, ms[i].disagreement.back(),
                      ms[i].max_dist_to_y.back());
            break;
          }
          case MegabatchEngine::kVector: {
            // One proto per cell run: the plan keeps same-cell replicas
            // adjacent, so seed copies share the proto's cost vector and
            // the engine's optimum memoization computes the reference
            // minimizer once per cell run.
            std::vector<VectorScenario> replicas;
            replicas.reserve(batch.size());
            std::size_t i = 0;
            while (i < batch.size()) {
              const std::size_t cell = batch[i].cell;
              const CellSpec& spec = specs[cell];
              VectorScenario proto = make_standard_vector_scenario(
                  spec.n, spec.f, config.spread, spec.attack, config.rounds,
                  config.seeds[batch[i].seed], spec.dim);
              proto.step = config.step;
              for (; i < batch.size() && batch[i].cell == cell; ++i) {
                VectorScenario s = proto;
                s.seed = config.seeds[batch[i].seed];
                replicas.push_back(std::move(s));
              }
            }
            const std::vector<VectorRunResult> ms =
                run_replicas(replicas, config.scalar_engine);
            for (std::size_t r = 0; r < batch.size(); ++r)
              scatter(r, ms[r].disagreement.back(),
                      ms[r].dist_to_average_optimum.back());
            break;
          }
          case MegabatchEngine::kSync: {
            std::vector<Scenario> replicas;
            replicas.reserve(batch.size());
            for (const MegabatchItem& it : batch) {
              const CellSpec& spec = specs[it.cell];
              Scenario s = make_standard_scenario(
                  spec.n, spec.f, config.spread, spec.attack, config.rounds,
                  config.seeds[it.seed]);
              s.step = config.step;
              replicas.push_back(std::move(s));
            }
            const std::vector<RunMetrics> ms =
                run_replicas(replicas, config.scalar_engine, kFinalsOnly);
            for (std::size_t i = 0; i < batch.size(); ++i)
              scatter(i, ms[i].final_disagreement(), ms[i].final_max_dist());
            break;
          }
        }
      });
}

}  // namespace

std::vector<SweepCell> run_sweep_cells(const SweepConfig& config,
                                       const std::vector<CellSpec>& specs) {
  config.validate();

  const std::size_t num_seeds = config.seeds.size();
  std::vector<double> disagreements(specs.size() * num_seeds, 0.0);
  std::vector<double> dists(specs.size() * num_seeds, 0.0);

  // Cache pre-pass: cells whose canonical key resolves fill their result
  // slots from the payload's bit-exact per-seed doubles; the rest land on
  // the pending list and are simulated exactly as without a cache. A
  // payload that fails to decode (truncated, wrong seed count, trailing
  // bytes) is discarded and the cell recomputed.
  std::vector<std::size_t> pending;
  pending.reserve(specs.size());
  std::vector<CellKey> keys;
  if (config.cache != nullptr) {
    keys.reserve(specs.size());
    for (std::size_t c = 0; c < specs.size(); ++c) {
      keys.push_back(make_cell_key(sweep_cell_cache_spec(config, specs[c])));
      bool filled = false;
      if (const std::optional<std::string> payload =
              config.cache->lookup(keys[c])) {
        try {
          PayloadReader reader(*payload);
          if (reader.get_u64() == num_seeds) {
            for (std::size_t i = 0; i < num_seeds; ++i)
              disagreements[c * num_seeds + i] = reader.get_double();
            for (std::size_t i = 0; i < num_seeds; ++i)
              dists[c * num_seeds + i] = reader.get_double();
            filled = reader.exhausted();
          }
        } catch (const ContractViolation&) {
          filled = false;
        }
      }
      if (!filled) pending.push_back(c);
    }
  } else {
    pending.resize(specs.size());
    std::iota(pending.begin(), pending.end(), std::size_t{0});
  }

  run_pending(config, specs, pending, disagreements, dists);

  if (config.cache != nullptr) {
    for (std::size_t c : pending) {
      PayloadWriter writer;
      writer.put_u64(num_seeds);
      for (std::size_t i = 0; i < num_seeds; ++i)
        writer.put_double(disagreements[c * num_seeds + i]);
      for (std::size_t i = 0; i < num_seeds; ++i)
        writer.put_double(dists[c * num_seeds + i]);
      config.cache->insert(keys[c], writer.bytes());
    }
  }

  std::vector<SweepCell> cells(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    cells[c].n = specs[c].n;
    cells[c].f = specs[c].f;
    cells[c].dim = specs[c].dim;
    cells[c].attack = specs[c].attack;
    cells[c].disagreement =
        summarize(std::span(disagreements).subspan(c * num_seeds, num_seeds));
    cells[c].dist_to_y =
        summarize(std::span(dists).subspan(c * num_seeds, num_seeds));
  }
  return cells;
}

std::vector<SweepCell> run_sweep(const SweepConfig& config) {
  return run_sweep_cells(config, sweep_cell_specs(config));
}

std::string sweep_csv_header() {
  return "n,f,dim,attack,seeds,dist_count,disagr_median,disagr_max,"
         "dist_median,dist_max";
}

std::string sweep_to_csv(const std::vector<SweepCell>& cells) {
  std::ostringstream os;
  os << sweep_csv_header() << '\n';
  os.precision(10);
  for (const SweepCell& c : cells) {
    // Hand-built cells may carry empty summaries; emit zeros rather than
    // whatever summarize-of-nothing would have divided into.
    const Summary disagr = c.disagreement.count > 0 ? c.disagreement : Summary{};
    const Summary dist = c.dist_to_y.count > 0 ? c.dist_to_y : Summary{};
    os << c.n << ',' << c.f << ',' << c.dim << ','
       << attack_kind_name(c.attack) << ','
       << disagr.count << ',' << dist.count << ',' << disagr.median << ','
       << disagr.max << ',' << dist.median << ',' << dist.max << '\n';
  }
  return os.str();
}

}  // namespace ftmao
