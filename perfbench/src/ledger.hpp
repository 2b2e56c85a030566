// Per scheme-run correctness ledger and the checks over it.
//
// Filled in after the workers join, with the structure quiescent:
//   - the element count seen by a quiescent sweep must equal
//     prefill + successful inserts - successful removes;
//   - after a quiescent drain every retired node must have been freed;
//   - on an open loop every scheduled op has completed.
// Any violation makes the benchmark exit non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ledger {
  std::uint64_t prefill = 0;
  std::uint64_t inserts_ok = 0;
  std::uint64_t removes_ok = 0;
  std::uint64_t observed = 0;  ///< quiescent element count
  std::uint64_t retired = 0;   ///< after the quiescent drain
  std::uint64_t freed = 0;
  bool open_loop = false;
  std::uint64_t scheduled = 0;  ///< open loop: ops the schedule made due
  std::uint64_t completed = 0;
};

inline std::vector<std::string> violations(const ledger& l) {
  std::vector<std::string> out;
  const std::uint64_t expect = l.prefill + l.inserts_ok - l.removes_ok;
  if (l.prefill + l.inserts_ok < l.removes_ok || l.observed != expect) {
    out.push_back("element count " + std::to_string(l.observed) +
                  " != prefill " + std::to_string(l.prefill) + " + inserts " +
                  std::to_string(l.inserts_ok) + " - removes " +
                  std::to_string(l.removes_ok));
  }
  if (l.retired != l.freed) {
    out.push_back("after drain retired " + std::to_string(l.retired) +
                  " != freed " + std::to_string(l.freed));
  }
  if (l.open_loop && l.scheduled != l.completed) {
    out.push_back("scheduled " + std::to_string(l.scheduled) +
                  " != completed " + std::to_string(l.completed));
  }
  return out;
}

}  // namespace perfbench
