#include "shmem/shmem.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <new>
#include <stdexcept>

#include "dma/descriptor.hpp"
#include "mem/memory_system.hpp"

namespace epi::shmem {

namespace {

using arch::Addr;

[[nodiscard]] unsigned pow2_ge(unsigned n) noexcept {
  unsigned p = 1;
  while (p < n) p <<= 1;
  return p;
}

[[nodiscard]] unsigned lowbit(unsigned x) noexcept { return x & (~x + 1u); }

[[nodiscard]] std::uint32_t combine(ReduceOp op, bool is_float, std::uint32_t a,
                                    std::uint32_t b) noexcept {
  if (is_float) {
    const float x = std::bit_cast<float>(a);
    const float y = std::bit_cast<float>(b);
    float r = 0.0f;
    switch (op) {
      case ReduceOp::Sum: r = x + y; break;
      case ReduceOp::Min: r = std::min(x, y); break;
      case ReduceOp::Max: r = std::max(x, y); break;
    }
    return std::bit_cast<std::uint32_t>(r);
  }
  const auto x = std::bit_cast<std::int32_t>(a);
  const auto y = std::bit_cast<std::int32_t>(b);
  std::int32_t r = 0;
  switch (op) {
    case ReduceOp::Sum: r = x + y; break;
    case ReduceOp::Min: r = std::min(x, y); break;
    case ReduceOp::Max: r = std::max(x, y); break;
  }
  return std::bit_cast<std::uint32_t>(r);
}

}  // namespace

// ---- SymmetricHeap --------------------------------------------------------

SymmetricHeap::SymmetricHeap(Addr base, Addr end) : base_(base), end_(end), top_(base) {
  if (base >= end || end > arch::AddressMap::kLocalMemBytes) {
    throw std::invalid_argument("symmetric heap must sit inside the 32 KB scratchpad");
  }
  if (base < kRuntimeEnd) {
    throw std::invalid_argument("symmetric heap overlaps the shmem runtime words");
  }
}

Addr SymmetricHeap::alloc(std::uint32_t bytes, std::uint32_t align) {
  if (bytes == 0) throw std::invalid_argument("shmem_malloc of zero bytes");
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("shmem_malloc alignment must be a power of two");
  }
  const Addr at = (top_ + align - 1) & ~static_cast<Addr>(align - 1);
  if (at + bytes > end_) throw std::bad_alloc{};
  top_ = at + bytes;
  return at;
}

// ---- Group ----------------------------------------------------------------

Group::Group(machine::Machine& m, device::GroupInfo info)
    : m_(&m), info_(info), heap_(kHeapBase, kHeapEnd) {
  using K = trace::Counters::Kind;
  trace::Counters& c = m.counters();
  c_puts_ = c.define("shmem.puts", K::Monotonic);
  c_gets_ = c.define("shmem.gets", K::Monotonic);
  c_bytes_ = c.define("shmem.bytes", K::Monotonic);
  c_barrier_waits_ = c.define("shmem.barrier_waits", K::Monotonic);
  c_broadcasts_ = c.define("shmem.broadcasts", K::Monotonic);
  c_reductions_ = c.define("shmem.reductions", K::Monotonic);
  reset_runtime_words();
}

void Group::reset_runtime_words() {
  auto& mem = m_->mem();
  static constexpr std::array<std::uint32_t, (kRuntimeEnd - kRuntimeBase) / 4> kZero{};
  for (unsigned pe = 0; pe < n_pes(); ++pe) {
    const arch::CoreCoord c = coord_of(pe);
    // Issued as the core's own write: a scrub is initialisation, not
    // cross-core traffic, so the sanitizer treats later local reads as
    // reads of the core's own data.
    mem.write_words(mem.map().global(c, kRuntimeBase), kZero, c);
  }
}

void Group::note_put(std::uint32_t bytes) {
  m_->count(c_puts_, 1.0);
  m_->count(c_bytes_, static_cast<double>(bytes));
}

void Group::note_get(std::uint32_t bytes) {
  m_->count(c_gets_, 1.0);
  m_->count(c_bytes_, static_cast<double>(bytes));
}

void Group::note_barrier(unsigned waits) {
  m_->count(c_barrier_waits_, static_cast<double>(waits));
}

void Group::note_broadcast() { m_->count(c_broadcasts_, 1.0); }
void Group::note_reduction() { m_->count(c_reductions_, 1.0); }

// ---- Pe -------------------------------------------------------------------

Pe::Pe(device::CoreCtx& ctx, Group& group) : ctx_(&ctx), group_(&group) {
  if (ctx.group_rows() != group.info().rows || ctx.group_cols() != group.info().cols) {
    throw std::invalid_argument("Pe: CoreCtx and Group disagree on the workgroup shape");
  }
}

Addr Pe::remote(unsigned pe, Addr sym_off) const {
  if (pe >= group_->n_pes()) throw std::out_of_range("shmem: PE index out of range");
  return ctx_->global(group_->coord_of(pe), sym_off);
}

void Pe::check_len(std::uint32_t bytes) {
  if (bytes % 4 != 0) {
    throw std::invalid_argument("shmem transfers are word-granular (bytes % 4 == 0)");
  }
}

sim::Op<void> Pe::drain() {
  if (dma_outstanding_) {
    co_await ctx_->dma_wait(kChan);
    dma_outstanding_ = false;
  }
}

sim::Op<void> Pe::dma_copy(Addr dst, Addr src, std::uint32_t bytes,
                           const dma::DmaDescriptor* chain) {
  co_await drain();
  co_await ctx_->dma_set_desc();
  dma::DmaDescriptor d = dma::DmaDescriptor::linear(dst, src, bytes);
  if (chain != nullptr) {
    co_await ctx_->dma_set_desc();
    d.chain = chain;
  }
  co_await ctx_->dma_start(kChan, d);
  co_await ctx_->dma_wait(kChan);
}

sim::Op<void> Pe::put(unsigned target, Addr dst_off, Addr src_off, std::uint32_t bytes) {
  check_len(bytes);
  if (bytes == 0) co_return;
  const Addr dst = remote(target, dst_off);
  const Addr src = ctx_->my_global(src_off);
  if (bytes <= kDmaThreshold) {
    co_await ctx_->direct_write_block(dst, src, bytes);
  } else {
    co_await dma_copy(dst, src, bytes, nullptr);
  }
  group_->note_put(bytes);
}

sim::Op<void> Pe::put_nbi(unsigned target, Addr dst_off, Addr src_off,
                          std::uint32_t bytes) {
  check_len(bytes);
  if (bytes == 0) co_return;
  const Addr dst = remote(target, dst_off);
  const Addr src = ctx_->my_global(src_off);
  if (bytes <= kDmaThreshold) {
    // Small transfers are store streams: complete when issued, nothing for
    // quiet() to track.
    co_await ctx_->direct_write_block(dst, src, bytes);
  } else {
    co_await drain();
    co_await ctx_->dma_set_desc();
    co_await ctx_->dma_start(kChan, dma::DmaDescriptor::linear(dst, src, bytes));
    dma_outstanding_ = true;
  }
  group_->note_put(bytes);
}

sim::Op<void> Pe::get(unsigned source, Addr dst_off, Addr src_off, std::uint32_t bytes) {
  check_len(bytes);
  if (bytes == 0) co_return;
  const Addr src = remote(source, src_off);
  const Addr dst = ctx_->my_global(dst_off);
  if (bytes <= kDmaThreshold) {
    // Load/store pairs: each remote load pays the read-network round trip;
    // the local store commits under it.
    auto& mem = group_->machine().mem();
    for (std::uint32_t off = 0; off < bytes; off += 4) {
      const std::uint32_t v = co_await ctx_->read_u32(src + off);
      mem.write_value<std::uint32_t>(dst + off, v, ctx_->coord());
    }
  } else {
    co_await dma_copy(dst, src, bytes, nullptr);
  }
  group_->note_get(bytes);
}

sim::Op<void> Pe::put_with_signal(unsigned target, Addr dst_off, Addr src_off,
                                  std::uint32_t bytes, Addr sig_off,
                                  std::uint32_t sig_val) {
  check_len(bytes);
  const Addr sig = remote(target, sig_off);
  if (bytes == 0) {
    co_await ctx_->write_u32(sig, sig_val);
    group_->note_put(4);
    co_return;
  }
  const Addr dst = remote(target, dst_off);
  const Addr src = ctx_->my_global(src_off);
  if (bytes <= kDmaThreshold) {
    // Program order is delivery order on the small path: the data block
    // commits before the flag store is issued.
    co_await ctx_->direct_write_block(dst, src, bytes);
    co_await ctx_->write_u32(sig, sig_val);
  } else {
    // Chain the 4-byte flag store behind the payload descriptor: the DMA
    // engine walks the chain in order, so the signal cannot pass the data.
    co_await ctx_->write_u32(ctx_->my_global(kSignalStage), sig_val);
    const dma::DmaDescriptor tail =
        dma::DmaDescriptor::linear(sig, ctx_->my_global(kSignalStage), 4);
    co_await dma_copy(dst, src, bytes, &tail);
  }
  group_->note_put(bytes + 4);
}

sim::Op<void> Pe::wait_signal_ge(Addr sig_off, std::uint32_t value) {
  return ctx_->wait_u32_ge(ctx_->my_global(sig_off), value);
}

sim::Op<void> Pe::quiet() { return drain(); }
sim::Op<void> Pe::fence() { return drain(); }

sim::Op<void> Pe::barrier_all() {
  const unsigned n = n_pes();
  if (n <= 1) co_return;
  const std::uint32_t gen = ++barrier_gen_;
  const unsigned me = my_pe();
  unsigned waits = 0;
  for (unsigned step = 1, r = 0; step < n; step <<= 1, ++r) {
    if (r >= kMaxRounds) throw std::logic_error("shmem barrier: group too large");
    const unsigned partner = (me + step) % n;
    co_await ctx_->write_u32(remote(partner, kBarrierFlags + 4 * r), gen);
    co_await ctx_->wait_u32_ge(ctx_->my_global(kBarrierFlags + 4 * r), gen);
    ++waits;
  }
  group_->note_barrier(waits);
}

sim::Op<void> Pe::broadcast(unsigned root, Addr sym_off, std::uint32_t bytes) {
  check_len(bytes);
  const unsigned n = n_pes();
  if (root >= n) throw std::out_of_range("shmem broadcast: root out of range");
  const unsigned me = my_pe();
  const std::uint32_t gen = ++bcast_gen_;
  if (me == root) group_->note_broadcast();
  if (n <= 1) co_return;
  const unsigned rel = (me + n - root) % n;
  unsigned m;
  if (rel != 0) {
    co_await ctx_->wait_u32_ge(ctx_->my_global(kBcastFlag), gen);
    m = lowbit(rel);
  } else {
    m = pow2_ge(n);
  }
  for (m >>= 1; m != 0; m >>= 1) {
    const unsigned child_rel = rel + m;
    if (child_rel >= n) continue;
    const unsigned child = (child_rel + root) % n;
    if (bytes > 0) co_await put(child, sym_off, sym_off, bytes);
    co_await ctx_->write_u32(remote(child, kBcastFlag), gen);
  }
}

sim::Op<std::uint32_t> Pe::allreduce_bits(ReduceOp op, bool is_float,
                                          std::uint32_t bits) {
  const unsigned n = n_pes();
  const unsigned me = my_pe();
  const std::uint32_t gen = ++reduce_gen_;
  std::uint32_t acc = bits;
  group_->note_reduction();
  if (n <= 1) co_return acc;
  // Up-sweep: binomial tree onto PE 0. A child parks its partial in the
  // parent's per-round slot, then raises the round flag; the parent's
  // flag-wait is the acquire edge covering the slot read.
  for (unsigned step = 1, r = 0; step < n; step <<= 1, ++r) {
    if (r >= kMaxRounds) throw std::logic_error("shmem reduce: group too large");
    if ((me & step) != 0) {
      const unsigned parent = me - step;
      co_await ctx_->write_u32(remote(parent, kReduceSlots + 8 * r), acc);
      co_await ctx_->write_u32(remote(parent, kReduceFlags + 4 * r), gen);
      break;
    }
    if (me + step < n) {
      co_await ctx_->wait_u32_ge(ctx_->my_global(kReduceFlags + 4 * r), gen);
      const std::uint32_t other =
          co_await ctx_->read_u32(ctx_->my_global(kReduceSlots + 8 * r));
      acc = combine(op, is_float, acc, other);
    }
  }
  // Down-sweep: binomial broadcast of the combined value from PE 0.
  if (me != 0) {
    co_await ctx_->wait_u32_ge(ctx_->my_global(kResultFlag), gen);
    acc = co_await ctx_->read_u32(ctx_->my_global(kResultSlot));
  }
  for (unsigned m = (me == 0 ? pow2_ge(n) : lowbit(me)) >> 1; m != 0; m >>= 1) {
    const unsigned child = me + m;
    if (child >= n) continue;
    co_await ctx_->write_u32(remote(child, kResultSlot), acc);
    co_await ctx_->write_u32(remote(child, kResultFlag), gen);
  }
  co_return acc;
}

sim::Op<float> Pe::allreduce_f32(ReduceOp op, float v) {
  co_return std::bit_cast<float>(
      co_await allreduce_bits(op, true, std::bit_cast<std::uint32_t>(v)));
}

sim::Op<std::int32_t> Pe::allreduce_i32(ReduceOp op, std::int32_t v) {
  co_return std::bit_cast<std::int32_t>(
      co_await allreduce_bits(op, false, std::bit_cast<std::uint32_t>(v)));
}

}  // namespace epi::shmem
