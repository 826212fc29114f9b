// Event closure with enough inline storage for the hot-path lambdas,
// replacing std::function<void()> in the scheduler.
//
// Why not std::function: libstdc++'s small-object buffer is two words, so
// every closure that captures more than two pointers (most MAC and DSR
// timers, which hold a PacketPtr and a few ids) would pay a heap
// allocation and free per event. EventFn gives closures up to kInlineBytes
// of inline storage and falls back to the heap only for larger ones.
//
// Semantics are the minimal subset the Scheduler needs: construct a
// callable in place, invoke it, destroy it. The call passes the index of
// the group member being dispatched (Scheduler::scheduleGroup); a nullary
// callable ignores it. No copy, no move, no target(),
// no allocator awareness. The Scheduler keeps each EventFn in a slot whose
// address never changes, builds the closure there with emplace() and runs
// it there, so a closure is never relocated. Dispatch goes through a
// hand-rolled vtable (invoke / destroy), one indirect call per event, with
// zero allocations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace manet::sim {

class EventFn {
 public:
  /// Inline capture budget. Eight words: room for a PacketPtr plus a
  /// handful of ids and pointers, which covers every closure the simulator
  /// schedules per frame. Larger captures still work but heap-allocate
  /// like std::function would.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Construct `f` (decayed) in this EventFn's storage. Precondition:
  /// empty.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, EventFn> &&
                (std::is_invocable_r_v<void, Fn&> ||
                 std::is_invocable_r_v<void, Fn&, std::uint32_t>)>>
  void emplace(F&& f) {
    assert(vt_ == nullptr && "emplace into an occupied EventFn");
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &vtableInline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &vtableHeap<Fn>;
    }
  }

  /// Destroy the stored callable, if any.
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// Run the callable, passing `member` if it takes an index.
  void operator()(std::uint32_t member) { vt_->invoke(buf_, member); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* buf, std::uint32_t member);
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr bool fitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t);
  }

  template <typename Fn>
  static void call(Fn& f, std::uint32_t member) {
    if constexpr (std::is_invocable_v<Fn&, std::uint32_t>) {
      f(member);
    } else {
      f();
    }
  }

  template <typename Fn>
  static void invokeInline(void* buf, std::uint32_t member) {
    call(*std::launder(reinterpret_cast<Fn*>(buf)), member);
  }
  template <typename Fn>
  static void destroyInline(void* buf) {
    std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
  }

  template <typename Fn>
  static void invokeHeap(void* buf, std::uint32_t member) {
    call(**std::launder(reinterpret_cast<Fn**>(buf)), member);
  }
  template <typename Fn>
  static void destroyHeap(void* buf) {
    delete *std::launder(reinterpret_cast<Fn**>(buf));
  }

  template <typename Fn>
  static constexpr VTable vtableInline{&invokeInline<Fn>, &destroyInline<Fn>};
  template <typename Fn>
  static constexpr VTable vtableHeap{&invokeHeap<Fn>, &destroyHeap<Fn>};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace manet::sim
