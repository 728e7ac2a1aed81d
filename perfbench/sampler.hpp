// SIGPROF stack sampler and module attribution for the traced run.
//
// While armed, an ITIMER_PROF timer interrupts whichever thread is using CPU
// and the signal handler stores the interrupted call stack (raw return
// addresses) in a preallocated buffer. After the run, Symbolizer maps each
// address to a function through the executable's own ELF symbol table and
// books the sample to the module of the innermost `nicwarp::` frame. Frames
// in libc, libstdc++ templates and the benchmark itself are skipped, so
// their time lands on the nearest simulator caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMaxFrames = 48;

struct StackSample {
  std::uint32_t depth = 0;
  std::uintptr_t pc[kMaxFrames] = {};  // innermost first
};

// At most one Sampler may exist at a time: the signal handler reads global
// state that the constructor sets up and the destructor tears down.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void resume();  // arm the timer; samples accumulate
  void pause();   // disarm the timer

  // Samples taken so far (not counting those dropped for lack of space).
  std::vector<StackSample> samples() const;
  std::uint64_t dropped() const;
  void clear();

 private:
  std::vector<StackSample> buf_;
};

// Module name for a demangled function name, or "" when the function is not
// part of the simulator. Modules are the src/ directories, with
// StatsRegistry split out as "core.stats" and the shard-synchronisation code
// (ShardSync, the shard mailboxes, the harness's sharded loop) as "shard".
// A type-erased callable (a SmallFn thunk, a std::thread entry) books to the
// module that defined the lambda it runs.
std::string module_of_symbol(std::string_view demangled);

class Symbolizer {
 public:
  // Reads the function symbols of the running executable from `exe_path`.
  explicit Symbolizer(const std::string& exe_path);

  struct Booking {
    std::map<std::string, std::uint64_t> by_module;
    std::uint64_t total = 0;
    std::uint64_t booked = 0;  // samples with a simulator frame
  };
  Booking book(const std::vector<StackSample>& samples);

 private:
  struct Func {
    std::uintptr_t addr;
    std::uintptr_t size;
    std::uint32_t name_off;
  };
  // Module of the innermost simulator frame, or "" when there is none.
  std::string module_of_stack(const StackSample& s);
  const std::string& module_of_func(std::size_t idx);
  const std::string* module_of_pc(std::uintptr_t pc);

  std::vector<char> strtab_;
  std::vector<Func> funcs_;  // sorted by addr
  std::vector<std::string> module_cache_;
  std::vector<bool> cached_;
  std::uintptr_t bias_ = 0;
};

}  // namespace perfbench
