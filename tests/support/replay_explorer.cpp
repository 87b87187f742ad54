#include "support/replay_explorer.h"

#include <memory>
#include <vector>

#include "sim/zobrist.h"
#include "util/errors.h"

namespace bsr::sim {

long ReplayExplorer::explore(const Factory& make, const Visitor& visit) const {
  return explore_until(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    visit(sim, sched);
    return false;
  });
}

long ReplayExplorer::explore_until(const Factory& make,
                                   const StoppingVisitor& visit) const {
  std::vector<std::size_t> path;    // chosen index at each depth
  std::vector<std::size_t> widths;  // number of choices at each depth
  std::vector<Choice> cs;           // choices at the current depth
  long visited = 0;

  while (true) {
    std::unique_ptr<Sim> sim = make();
    usage_check(sim != nullptr, "Explorer: factory returned null");
    std::vector<Choice> schedule;
    int crashes = 0;
    long steps = 0;

    const auto apply = [&](const Choice& c) {
      if (c.kind == Choice::Kind::Step) {
        sim->step(c.pid, c.recv_from);
        ++steps;
      } else {
        sim->crash(c.pid);
        ++crashes;
      }
      schedule.push_back(c);
    };

    // Replay the committed prefix.
    for (std::size_t depth = 0; depth < path.size(); ++depth) {
      detail::legal_choices(*sim, crashes, opts_, cs);
      usage_check(path[depth] < cs.size(),
                  "Explorer: nondeterministic factory (choice set changed)");
      apply(cs[path[depth]]);
    }

    // Extend greedily with first choices until no process is enabled.
    while (true) {
      detail::legal_choices(*sim, crashes, opts_, cs);
      if (cs.empty()) break;
      usage_check(steps < opts_.max_steps,
                  "Explorer: execution exceeded max_steps; "
                  "protocol may not terminate");
      path.push_back(0);
      widths.push_back(cs.size());
      apply(cs[0]);
    }

    ++visited;
    if (visit(*sim, schedule)) return visited;

    // Backtrack to the deepest depth with an unexplored alternative.
    while (!path.empty() && path.back() + 1 >= widths.back()) {
      path.pop_back();
      widths.pop_back();
    }
    if (path.empty()) return visited;
    ++path.back();
  }
}

void Observed::record(const Sim& sim, std::uint64_t final_hash) {
  ++visits;
  finals.insert(final_hash);
  for (const ModelEvent& e : sim.model_violations()) {
    violations.insert(to_string(e.kind) + "|" + std::to_string(e.pid) + "|" +
                      std::to_string(e.reg) + "|" + e.message);
  }
}

Observed replay_oracle(const Explorer::Factory& make,
                       const ExploreOptions& opts,
                       const Explorer::Visitor& also) {
  Observed obs;
  obs.count = ReplayExplorer(opts).explore(
      [&make] {
        auto sim = make();
        sim->set_checkpointing(true);  // full_hash reads the result logs
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>& schedule) {
        obs.record(sim, zobrist::full_hash(sim));
        if (also) also(sim, schedule);
      });
  return obs;
}

}  // namespace bsr::sim
