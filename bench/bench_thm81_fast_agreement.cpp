// Theorem 8.1 reproduction: 2-process ε-agreement in O(log 1/ε) steps with
// two registers of 6 bits — against Algorithm 1's Θ(1/ε) with 1-bit
// registers. The crossover and the factor between the two is the headline
// series of §8.
#include "common.h"
#include "core/alg1.h"
#include "core/alg6.h"
#include "core/lemma82.h"
#include "sim/sched.h"

namespace {

using namespace bsr;

void print_comparison() {
  bench::banner(
      "Theorem 8.1 — step complexity: Algorithm 1 vs Algorithm 6 stack",
      "for matched ε: Alg 1 needs Θ(1/ε) steps on 1-bit registers; the "
      "Alg 6 simulation needs O(log 1/ε) steps on 6-bit registers");
  bench::Table table({"R", "1/ε = 2^R", "alg6 steps/proc (6-bit regs)",
                      "alg1 k for same ε", "alg1 steps/proc (1-bit regs)",
                      "speedup"});
  for (int R = 3; R <= 16; ++R) {
    const std::uint64_t inv_eps = std::uint64_t{1} << R;
    // Algorithm 6 run (lockstep): both simulate all R rounds.
    sim::Sim s6(2);
    const core::Alg6Handles h = core::install_alg6_labelling(s6, {R, 2});
    run_round_robin(s6);
    const long steps6 = s6.steps(0) - 1;
    // Algorithm 1 with matching precision: 2k+1 >= 2^R.
    const std::uint64_t k = inv_eps / 2;
    sim::Sim s1(2);
    core::install_alg1(s1, k, {0, 1});
    run_round_robin(s1);
    const long steps1 = s1.steps(0) - 1;
    const std::string row = "R=" + bench::str(R);
    bench::expect(row + " alg6 steps/proc", 2L * R, steps6);
    for (int reg : h.reg) {
      bench::expect(row + " alg6 register bits", 6,
                    s6.register_info(reg).width_bits);
    }
    bench::expect(row + " alg1 steps/proc", static_cast<long>(2 * k + 3),
                  steps1);
    table.row({bench::str(R), bench::str(inv_eps), bench::str(steps6),
               bench::str(k), bench::str(steps1),
               bench::str(steps1 / std::max<long>(steps6, 1)) + "x"});
  }
  table.print();
}

void print_convergence_bases() {
  bench::banner(
      "Convergence bases — iterated vs non-iterated constant registers",
      "IIS labelling agreement (Lemma 8.2) converges base 3 per round but "
      "needs a fresh register pair every round; Algorithm 6 converges base "
      "2 per round on two fixed 6-bit registers");
  bench::Table table({"rounds r", "IIS grid 3^r", "IIS registers used",
                      "alg6 grid >= 2^r", "alg6 registers"});
  for (int r : {2, 4, 6, 8, 10}) {
    sim::Sim sim(2);
    const core::LabelAgreementHandles h =
        core::install_labelling_agreement(sim, r, {0, 1});
    run_round_robin(sim);
    // A fresh write-once pair of 1 data bit + ⊥ per round.
    const std::string row = "r=" + bench::str(r);
    bench::expect(row + " IIS registers used", static_cast<std::size_t>(2 * r),
                  h.rounds.size());
    for (int reg : h.rounds) {
      const sim::Register& info = sim.register_info(reg);
      bench::expect(row + " IIS register bits", 2, info.width_bits);
      bench::expect(row + " IIS register write-once", true, info.writes <= 1);
    }
    table.row({bench::str(r), bench::str(core::pow3(r)),
               bench::str(2 * r) + " x 2-bit (write-once)",
               bench::str(std::uint64_t{1} << r), "2 x 6-bit"});
  }
  table.print();
}

void print_plan_quality() {
  bench::banner("Offline value assignment (small R, exhaustive)",
                "the simulation's label graph is a path of length >= 2^R; "
                "f = index/length gives ε-agreement with ε = 1/length");
  bench::Table table({"R", "path length", "2^R bound", "labels",
                      "full-length executions"});
  const std::uint64_t path_lengths[] = {9, 23, 57};
  for (int R : {2, 3, 4}) {
    const core::FastAgreementPlan plan({R, 2});
    const std::string row = "R=" + bench::str(R);
    bench::expect(row + " path length", path_lengths[R - 2],
                  plan.path_length());
    bench::expect(row + " path length >= 2^R", true,
                  plan.path_length() >= (std::uint64_t{1} << R));
    bench::expect(row + " labels = length + 1", plan.path_length() + 1,
                  plan.label_count());
    table.row({bench::str(R), bench::str(plan.path_length()),
               bench::str(std::uint64_t{1} << R),
               bench::str(plan.label_count()),
               bench::str(plan.full_length_executions())});
  }
  table.print();
}

}  // namespace

int main() {
  print_comparison();
  print_convergence_bases();
  print_plan_quality();
  return bench::exit_status();
}
