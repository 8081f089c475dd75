#include "sim/sweep.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/replica_driver.hpp"
#include "sim/scenario_io.hpp"

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

// One cell's final disagreement and distance per seed, in seed order.
// Its cache payload is the seed count, then each vector in turn.
struct CellRuns {
  std::vector<double> disagreement;
  std::vector<double> dist;
};

// The one scheduling path: pack pending (cell, seed) replicas that share
// an engine shape — any attack, any seed — into lane-filling batches
// (sim/megabatch.hpp) and submit them cost-ordered, longest first. Under
// scalar_engine the plan is batch-1 tasks run on the reference engines.
// Each task builds its shape's scenario once and copies it per replica
// (sim/replica_driver.hpp). Every replica derives its randomness solely
// from its own seed and scatters into its own pre-assigned slot, and the
// batch engines are bit-identical to the reference engines per replica
// regardless of batch composition, so the aggregate is the same whatever
// the thread count, batch size, engine, or cache hit pattern.
//
// A seed-free cell runs one replica, on its first seed, and its finals
// fill every seed slot: a sync grid has no link drops or crashes, so a
// sync cell whose attack reads no seed (attack_reads_seed) is the same
// run for every seed. Async cells draw their delays from the seed.
// scalar_engine still runs every (cell, seed), so the reference path
// stays an independent check of that rule.
void run_pending(const SweepConfig& config, const std::vector<CellSpec>& specs,
                 const std::vector<std::size_t>& pending,
                 std::vector<CellRuns>& runs) {
  const std::size_t num_seeds = config.seeds.size();
  const auto runs_once = [&](const CellSpec& spec) {
    return !config.scalar_engine && !config.async_engine &&
           !attack_reads_seed(spec.attack);
  };
  std::vector<MegabatchItem> items;
  items.reserve(pending.size() * num_seeds);
  for (std::size_t c : pending) {
    const CellSpec& spec = specs[c];
    const MegabatchEngine engine = config.async_engine
                                       ? MegabatchEngine::kAsync
                                   : spec.dim >= 2 ? MegabatchEngine::kVector
                                                   : MegabatchEngine::kSync;
    const std::size_t seeds_run = runs_once(spec) ? 1 : num_seeds;
    for (std::size_t i = 0; i < seeds_run; ++i)
      items.push_back({{engine, spec.n, spec.f, spec.dim}, c, i});
  }
  const MegabatchPlan plan = plan_megabatches(
      std::move(items), config.scalar_engine ? 1 : config.batch_size,
      config.rounds);
  parallel_for_each(
      config.num_threads, plan.tasks.size(), [&](std::size_t ti) {
        const MegabatchTask& task = plan.tasks[ti];
        // A cell reads only its runs' finals.
        const auto run = [&](const auto& shape) {
          run_task(
              shape, task,
              [&](std::size_t i) {
                // A delayed strike sleeps through the first half.
                return Replica{{.kind = specs[plan.items[i].cell].attack,
                                .activation_round = config.rounds / 2 + 1},
                               config.seeds[plan.items[i].seed]};
              },
              config.scalar_engine, kFinalsOnly,
              [&](std::size_t i, const auto& result) {
                const Finals finals = finals_of(result);
                const MegabatchItem& item = plan.items[i];
                runs[item.cell].disagreement[item.seed] = finals.disagreement;
                runs[item.cell].dist[item.seed] = finals.dist;
              });
        };
        const MegabatchKey& key = task.key;
        switch (key.engine) {
          case MegabatchEngine::kAsync: {
            AsyncScenario shape = make_standard_async_scenario(
                key.n, key.f, config.spread, AttackKind::None, config.rounds);
            shape.step = config.step;
            shape.delay_kind = config.delay_kind;
            shape.delay_lo = config.delay_lo;
            shape.delay_hi = config.delay_hi;
            return run(shape);
          }
          case MegabatchEngine::kVector: {
            VectorScenario shape = make_standard_vector_scenario(
                key.n, key.f, config.spread, AttackKind::None, config.rounds,
                1, key.dim);
            shape.step = config.step;
            return run(shape);
          }
          case MegabatchEngine::kSync: {
            Scenario shape = make_standard_scenario(
                key.n, key.f, config.spread, AttackKind::None, config.rounds);
            shape.step = config.step;
            return run(shape);
          }
        }
      });
  for (std::size_t c : pending) {
    if (!runs_once(specs[c])) continue;
    for (std::vector<double>* values : {&runs[c].disagreement,
                                        &runs[c].dist})
      std::fill(values->begin() + 1, values->end(), values->front());
  }
}

}  // namespace

std::vector<SweepCell> run_sweep_cells(const SweepConfig& config,
                                       const std::vector<CellSpec>& specs) {
  config.validate();

  // Cached cells fill their slots from the payload's bit-exact per-seed
  // doubles; the rest are simulated exactly as without a cache.
  const std::size_t num_seeds = config.seeds.size();
  std::vector<CellRuns> runs(
      specs.size(), CellRuns{std::vector<double>(num_seeds),
                             std::vector<double>(num_seeds)});
  cached_pass(
      config.cache, runs,
      [&](std::size_t c) { return sweep_cell_cache_spec(config, specs[c]); },
      [&](PayloadReader& reader) {
        FTMAO_EXPECTS(reader.get_u64() == num_seeds);
        CellRuns cell;
        for (std::vector<double>* values : {&cell.disagreement, &cell.dist})
          for (std::size_t i = 0; i < num_seeds; ++i)
            values->push_back(reader.get_double());
        return cell;
      },
      [&](PayloadWriter& writer, const CellRuns& cell) {
        writer.put_u64(num_seeds);
        for (const std::vector<double>* values : {&cell.disagreement,
                                                  &cell.dist})
          for (double value : *values) writer.put_double(value);
      },
      [&](const std::vector<std::size_t>& pending) {
        run_pending(config, specs, pending, runs);
      });

  std::vector<SweepCell> cells(specs.size());
  for (std::size_t c = 0; c < specs.size(); ++c) {
    cells[c].n = specs[c].n;
    cells[c].f = specs[c].f;
    cells[c].dim = specs[c].dim;
    cells[c].attack = specs[c].attack;
    cells[c].disagreement = summarize(runs[c].disagreement);
    cells[c].dist_to_y = summarize(runs[c].dist);
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
    const Summary disagr =
        c.disagreement.count > 0 ? c.disagreement : Summary{};
    const Summary dist = c.dist_to_y.count > 0 ? c.dist_to_y : Summary{};
    os << c.n << ',' << c.f << ',' << c.dim << ','
       << attack_kind_name(c.attack) << ','
       << disagr.count << ',' << dist.count << ',' << disagr.median << ','
       << disagr.max << ',' << dist.median << ',' << dist.max << '\n';
  }
  return os.str();
}

}  // namespace ftmao
