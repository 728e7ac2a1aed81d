#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace perfbench {
namespace {

// Handler state. Set by the Sampler constructor before the handler is
// installed; the handler only touches preallocated memory and atomics.
StackSample* g_slots = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_armed{false};
struct sigaction g_old_action;

constexpr long kIntervalUs = 1000;

std::uintptr_t interrupted_pc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
    if (i < g_capacity) {
      // backtrace() starts inside this handler; the interrupted frame is the
      // one whose address equals the interrupted pc, so keep from there.
      void* raw[kMaxFrames + 8];
      const int n = backtrace(raw, static_cast<int>(std::size(raw)));
      const std::uintptr_t ip = interrupted_pc(uctx);
      int start = -1;
      for (int k = 0; k < n; ++k) {
        if (reinterpret_cast<std::uintptr_t>(raw[k]) == ip) {
          start = k;
          break;
        }
      }
      StackSample& s = g_slots[i];
      if (start < 0) {
        s.pc[0] = ip;
        s.depth = 1;
      } else {
        std::uint32_t d = 0;
        for (int k = start; k < n && d < kMaxFrames; ++k) {
          s.pc[d++] = reinterpret_cast<std::uintptr_t>(raw[k]);
        }
        s.depth = d;
      }
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval t{};
  t.it_interval.tv_usec = interval_us;
  t.it_value.tv_usec = interval_us;
  if (setitimer(ITIMER_PROF, &t, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

// Drops a leading return type ("void nicwarp::f<int>(int)" is how function
// template names demangle): the qualified name starts after the last space
// that sits outside any <> or () before the parameter list.
std::string_view qualified_name(std::string_view s) {
  constexpr std::string_view kAnon = "(anonymous namespace)";
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '(' && depth == 0) {
      if (s.substr(i, kAnon.size()) == kAnon) {
        i += kAnon.size() - 1;
        continue;
      }
      break;
    }
    if (c == '<' || c == '(') {
      ++depth;
    } else if ((c == '>' || c == ')') && depth > 0) {
      --depth;
    } else if (c == ' ' && depth == 0) {
      start = i + 1;
    }
  }
  return s.substr(start);
}

constexpr std::string_view kModules[] = {"sim",    "hw",      "comm",    "firmware",
                                         "warped", "models", "harness", "profile"};

// Module named right after "nicwarp::" in `rest`, or "" when `rest` starts
// with no module namespace (code directly in nicwarp:: is core).
std::string_view module_prefix(std::string_view rest) {
  for (std::string_view m : kModules) {
    if (starts_with(rest, m) && rest.substr(m.size(), 2) == "::") return m;
  }
  return {};
}

}  // namespace

Sampler::Sampler(std::size_t capacity) : buf_(capacity) {
  // The first backtrace() call loads the unwinder, which allocates; do it
  // here, outside any signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);
  g_slots = buf_.data();
  g_capacity = buf_.size();
  g_next.store(0);
  g_dropped.store(0);
  struct sigaction sa{};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_old_action) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
}

Sampler::~Sampler() {
  pause();
  sigaction(SIGPROF, &g_old_action, nullptr);
  g_slots = nullptr;
  g_capacity = 0;
}

void Sampler::resume() {
  g_armed.store(true);
  set_timer(kIntervalUs);
}

void Sampler::pause() {
  set_timer(0);
  g_armed.store(false);
}

std::vector<StackSample> Sampler::samples() const {
  const std::size_t n = std::min(g_next.load(), buf_.size());
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::uint64_t Sampler::dropped() const { return g_dropped.load(); }

void Sampler::clear() {
  g_next.store(0);
  g_dropped.store(0);
}

std::string module_of_symbol(std::string_view demangled) {
  constexpr std::string_view kNs = "nicwarp::";
  const std::string_view q = qualified_name(demangled);
  const bool thread_entry = starts_with(q, "std::thread::_State_impl<");
  if (!starts_with(q, kNs) && !thread_entry) return {};
  const std::string_view rest = thread_entry ? q : q.substr(kNs.size());
  if (demangled.find("run_sharded") != std::string_view::npos ||
      starts_with(rest, "sim::ShardSync") || starts_with(rest, "hw::ShardMailboxes") ||
      starts_with(rest, "SpscRing") ||
      starts_with(rest, "hw::Cluster::stage_shard_inbound") ||
      starts_with(rest, "hw::Cluster::drain_shard_inbound")) {
    return "shard";
  }
  if (starts_with(rest, "StatsRegistry::") || starts_with(rest, "Counter::") ||
      starts_with(rest, "Histogram::")) {
    return "core.stats";
  }
  if (thread_entry || starts_with(rest, "SmallFn<")) {
    // A SmallFn thunk or a std::thread entry has the stored lambda's body
    // inlined into it; book it to the module that defined the lambda, named
    // in the template argument.
    for (std::size_t p = rest.find(kNs); p != std::string_view::npos;
         p = rest.find(kNs, p + 1)) {
      const std::string_view m = module_prefix(rest.substr(p + kNs.size()));
      if (!m.empty()) return std::string(m);
    }
    return "core";
  }
  const std::string_view m = module_prefix(rest);
  return m.empty() ? "core" : std::string(m);
}

Symbolizer::Symbolizer(const std::string& exe_path) {
  std::ifstream in(exe_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + exe_path);
  const std::vector<char> elf((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  auto fits = [&](std::uint64_t off, std::uint64_t len) {
    return off <= elf.size() && len <= elf.size() - off;
  };
  Elf64_Ehdr eh;
  if (!fits(0, sizeof eh)) throw std::runtime_error("not an ELF file: " + exe_path);
  std::memcpy(&eh, elf.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr) ||
      !fits(eh.e_shoff, std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr))) {
    throw std::runtime_error("unsupported ELF file: " + exe_path);
  }
  std::vector<Elf64_Shdr> sh(eh.e_shnum);
  std::memcpy(sh.data(), elf.data() + eh.e_shoff, sh.size() * sizeof(Elf64_Shdr));
  for (const Elf64_Shdr& s : sh) {
    if (s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size()) continue;
    const Elf64_Shdr& str = sh[s.sh_link];
    if (!fits(s.sh_offset, s.sh_size) || !fits(str.sh_offset, str.sh_size)) continue;
    strtab_.assign(elf.data() + str.sh_offset, elf.data() + str.sh_offset + str.sh_size);
    strtab_.push_back('\0');
    for (std::uint64_t off = 0; off + sizeof(Elf64_Sym) <= s.sh_size; off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym;
      std::memcpy(&sym, elf.data() + s.sh_offset + off, sizeof sym);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 || sym.st_size == 0 ||
          sym.st_name >= str.sh_size) {
        continue;
      }
      funcs_.push_back({sym.st_value, sym.st_size, sym.st_name});
    }
    break;
  }
  if (funcs_.empty()) throw std::runtime_error("no function symbols in " + exe_path);
  std::sort(funcs_.begin(), funcs_.end(),
            [](const Func& a, const Func& b) { return a.addr < b.addr; });
  module_cache_.resize(funcs_.size());
  cached_.assign(funcs_.size(), false);
  // The first object dl_iterate_phdr reports is the executable; its load
  // bias turns runtime addresses into symbol-table addresses (PIE builds).
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;
      },
      &bias_);
}

const std::string& Symbolizer::module_of_func(std::size_t idx) {
  if (!cached_[idx]) {
    const char* mangled = strtab_.data() + funcs_[idx].name_off;
    int status = 0;
    char* dem = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
    module_cache_[idx] = module_of_symbol(status == 0 && dem ? dem : mangled);
    std::free(dem);
    cached_[idx] = true;
  }
  return module_cache_[idx];
}

const std::string* Symbolizer::module_of_pc(std::uintptr_t pc) {
  if (pc < bias_) return nullptr;
  const std::uintptr_t a = pc - bias_;
  auto it = std::upper_bound(funcs_.begin(), funcs_.end(), a,
                             [](std::uintptr_t v, const Func& f) { return v < f.addr; });
  if (it == funcs_.begin()) return nullptr;
  --it;
  if (a >= it->addr + it->size) return nullptr;  // libc, libstdc++, ...
  return &module_of_func(static_cast<std::size_t>(it - funcs_.begin()));
}

std::string Symbolizer::module_of_stack(const StackSample& s) {
  for (std::uint32_t k = 0; k < s.depth; ++k) {
    // Outer frames hold return addresses, which may already point at the
    // next function; step back into the call instruction.
    const std::uintptr_t pc = k == 0 ? s.pc[k] : s.pc[k] - 1;
    const std::string* m = module_of_pc(pc);
    if (m != nullptr && !m->empty()) return *m;
  }
  return {};
}

Symbolizer::Booking Symbolizer::book(const std::vector<StackSample>& samples) {
  Booking b;
  for (const StackSample& s : samples) {
    ++b.total;
    const std::string m = module_of_stack(s);
    if (m.empty()) continue;
    ++b.booked;
    ++b.by_module[m];
  }
  return b;
}

}  // namespace perfbench
