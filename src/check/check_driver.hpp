// Correctness oracle, part 4: the `check` binary's driver.
//
// One command sweeps every registered scheme×structure cell under
// small-key contention with the history recorder on, runs the matching
// linearizability checker per cell (set semantics for the keyed
// structures, FIFO/LIFO token matching for the containers — the mode
// comes from the registry's container_order tag, not from name matching),
// and exits non-zero with a printed counterexample on the first
// violation. `--faults` composes exactly as in fig_timeline, so histories
// under stalls and churn are checked too;
// `--mutate drop-validate|skip-protect` runs the corresponding
// self-test mutant instead and is *expected* to exit non-zero — an exit
// of 0 there means the oracle failed to catch an injected bug.
#pragma once

namespace hyaline::check {

/// Parse argv and run. Exit statuses: 0 = every cell linearizable (or, in
/// --mutate mode, the oracle MISSED the injected bug); 2 = CLI error;
/// 3 = a leak/conservation gate failed; 5 = a linearizability violation
/// was found (the expected outcome under --mutate).
int run_check(int argc, char** argv);

}  // namespace hyaline::check
