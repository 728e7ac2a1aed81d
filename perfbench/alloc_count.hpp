// Counts calls to the global operator new. The replacement operators live in
// alloc_count.cpp, which is linked only into the benchmark binary, so the
// simulator itself is unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

// Starts counting from zero. Counting is off until the first call.
void alloc_count_start();
// Stops counting and returns the number of operator new calls since start.
std::uint64_t alloc_count_stop();

}  // namespace perfbench
