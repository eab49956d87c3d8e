// Opt-in heap-allocation counter. The perfbench binary replaces the global
// operator new/delete with malloc/free forwarders that also count calls
// and requested bytes while counting is switched on. Counting is off by
// default and is only switched on around the traced run's 1-worker
// reference pass, so end-to-end runs never pay for it.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Zero the totals and start counting.
void alloc_counting_start();
/// Stop counting and return the totals since the last start.
AllocTotals alloc_counting_stop();

}  // namespace perfbench
