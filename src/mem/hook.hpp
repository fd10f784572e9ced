#pragma once
// Observation interface for MemorySystem traffic. A hook sees every
// functional read/write (with the issuing core and the *canonical* global
// address) plus synchronisation events, without perturbing functional
// behaviour or timing. The tracer, the fault injector and the runtime
// sanitizer (lint/sanitizer.hpp) implement it; keeping the interface here
// keeps every dependency arrow pointing into mem, never out of it.

#include <cstddef>

#include "arch/address_map.hpp"
#include "arch/coords.hpp"
#include "sim/engine.hpp"

namespace epi::mem {

class MemoryHook {
public:
  virtual ~MemoryHook() = default;

  /// `a` is canonical (local aliases already rebased to the issuer's global
  /// window); `now` is the engine time of the access.
  virtual void on_write(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                        sim::Cycles now) = 0;
  virtual void on_read(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                       sim::Cycles now) = 0;

  /// `issuer` completed a synchronisation acquire (a flag wait or mutex
  /// acquisition): remote writes ordered before this point are now safe for
  /// it to read.
  virtual void on_sync(arch::CoreCoord issuer, sim::Cycles now) = 0;
};

}  // namespace epi::mem
