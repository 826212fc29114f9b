// Move-only event closure with enough inline storage for the hot-path
// lambdas, replacing std::function<void()> in the scheduler.
//
// Why not std::function: libstdc++'s small-object buffer is two words, and
// the busiest closure in the simulator — the channel's rxEnd handler, which
// captures a Radio*, a transmission id and a mac::Frame (itself holding a
// shared_ptr payload) — is ~64 bytes, so every frame delivery paid a heap
// allocation and free. EventFn gives closures up to kInlineBytes of inline
// storage (chosen to fit that rxEnd capture) and falls back to the heap
// only for larger ones, which do not occur on the per-frame path.
//
// Semantics are the minimal subset the Scheduler needs: construct from any
// callable, move, invoke once or more, destroy. No copy, no target(), no
// allocator awareness. Dispatch goes through a hand-rolled vtable (invoke /
// relocate / destroy) so the common case is one indirect call, same as
// std::function, with zero allocations.
//
// The Scheduler relocates each closure twice: into its payload slot when
// the event is scheduled, and out of the slot just before it runs. The
// pending-set heap orders 24-byte keys only, so sifting it never touches
// a closure.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace manet::sim {

class EventFn {
 public:
  /// Inline capture budget. Sized for the largest per-frame closure (the
  /// channel rxEnd handler: Radio* + txId + mac::Frame ≈ 64 bytes); larger
  /// captures still work but heap-allocate like std::function would.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every scheduleAt call site
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &vtableInline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &vtableHeap<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);  // move + destroy source
      other.vt_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(buf_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* buf);
    /// Move-construct the stored callable from `src` into `dst`, then
    /// destroy the source (a "relocate", so moved-from EventFns hold
    /// nothing and moves are a single vtable call).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr bool fitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static void invokeInline(void* buf) {
    (*std::launder(reinterpret_cast<Fn*>(buf)))();
  }
  template <typename Fn>
  static void relocateInline(void* dst, void* src) {
    Fn* s = std::launder(reinterpret_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void destroyInline(void* buf) {
    std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
  }

  template <typename Fn>
  static void invokeHeap(void* buf) {
    (**std::launder(reinterpret_cast<Fn**>(buf)))();
  }
  template <typename Fn>
  static void relocateHeap(void* dst, void* src) {
    Fn** s = std::launder(reinterpret_cast<Fn**>(src));
    ::new (dst) Fn*(*s);  // steal the pointer
  }
  template <typename Fn>
  static void destroyHeap(void* buf) {
    delete *std::launder(reinterpret_cast<Fn**>(buf));
  }

  template <typename Fn>
  static constexpr VTable vtableInline{&invokeInline<Fn>, &relocateInline<Fn>,
                                       &destroyInline<Fn>};
  template <typename Fn>
  static constexpr VTable vtableHeap{&invokeHeap<Fn>, &relocateHeap<Fn>,
                                     &destroyHeap<Fn>};

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace manet::sim
