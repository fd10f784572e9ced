// A minimal host-time sampler, preloaded into the one process to measure:
//
//     cc -O2 -Wall -Werror -shared -fPIC -o sampler.so scripts/prof/sampler.c -ldl
//     LD_PRELOAD=$PWD/sampler.so ./program args...
//     python3 scripts/prof/map.py ./program sampler.<pid>.out
//
// The constructor arms ITIMER_PROF at 1 ms of process CPU time and installs
// an SA_SIGINFO SIGPROF handler that stores the interrupted program counter.
// The destructor writes sampler.<pid>.out in the working directory, one
// sample per line:
//
//     exe 0x<offset>                     in the executable; the offset is
//                                        from its load base, as `nm -n` shows
//     <library> 0x<offset> <symbol>      in a shared object; the offset is
//                                        from the object's load base, the
//                                        symbol dladdr's nearest dynamic one
//
// A stripped library (libc) exports only its public symbols, so an internal
// function (a memset or memmove variant) shows under the exported symbol
// before it; read the instructions at the offset with `objdump -d` to tell.

#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if defined(__x86_64__)
#define SAMPLE_PC(uc) ((uintptr_t)(uc)->uc_mcontext.gregs[REG_RIP])
#elif defined(__aarch64__)
#define SAMPLE_PC(uc) ((uintptr_t)(uc)->uc_mcontext.pc)
#else
#error "sampler.c: add this architecture's program counter register"
#endif

#define MAX_SAMPLES (1u << 20) /* about 17 minutes of CPU time at 1 ms */

static uintptr_t samples[MAX_SAMPLES];
static unsigned taken;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const unsigned i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = SAMPLE_PC((const ucontext_t*)context);
}

/* The executable's load base and the extent of its loaded segments. */
struct exe_map {
  uintptr_t base, lo, hi;
};

static int find_exe(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct exe_map* m = data;
  m->base = info->dlpi_addr;
  m->lo = UINTPTR_MAX;
  m->hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (lo < m->lo) m->lo = lo;
    if (lo + ph->p_memsz > m->hi) m->hi = lo + ph->p_memsz;
  }
  return 1; /* the first object listed is the executable */
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  struct exe_map exe = {0, 0, 0};
  dl_iterate_phdr(find_exe, &exe);

  char path[64];
  snprintf(path, sizeof path, "sampler.%d.out", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror(path);
    return;
  }
  const unsigned n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (unsigned i = 0; i < n; ++i) {
    const uintptr_t pc = samples[i];
    Dl_info dl;
    if (pc >= exe.lo && pc < exe.hi) {
      fprintf(out, "exe 0x%lx\n", (unsigned long)(pc - exe.base));
    } else if (dladdr((void*)pc, &dl) != 0 && dl.dli_fname != NULL) {
      fprintf(out, "%s 0x%lx %s\n", dl.dli_fname,
              (unsigned long)(pc - (uintptr_t)dl.dli_fbase),
              dl.dli_sname != NULL ? dl.dli_sname : "?");
    } else {
      fprintf(out, "? 0x%lx\n", (unsigned long)pc);
    }
  }
  fclose(out);
  fprintf(stderr, "sampler: %u samples in %s\n", n, path);
}
