// Discrete-event kernel: the callable an event runs.
//
// `Action` is a move-only `void()` callable with a small inline buffer. The
// scheduler's hot captures (`[this, d, extent, xfer]` and smaller) are
// constructed in place and relocated without touching the allocator; a
// larger or throwing-move capture falls back to one heap allocation. Unlike
// `std::function` it accepts move-only captures (a `std::unique_ptr`, or an
// `Action` handed down a chain of continuations), so a callback moves from
// one event to the next instead of being copied.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tapesim::sim {

class Action {
 public:
  /// Captures up to this many bytes live inside the Action itself.
  static constexpr std::size_t kInlineSize = 48;

  Action() noexcept = default;

  /// Wraps any `void()` callable. A callable that tests false (an empty
  /// `std::function`, a null function pointer) yields an empty Action.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_v<std::decay_t<F>&>)
  Action(F&& f) {  // implicit, like std::function's
    using Fn = std::decay_t<F>;
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(f)) return;
    }
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      Fn* boxed = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  Action(Action&& other) noexcept { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  /// Destroys the held callable (and its captures) now; leaves it empty.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops->destroy != nullptr) ops->destroy(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }
  /// True when the callable lives in the inline buffer (no allocation).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->is_inline;
  }

  /// Runs the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs into `dst` and destroys `src`; nullptr = memcpy of
    /// the first `size` bytes.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroys in place; nullptr = nothing to do.
    void (*destroy)(void* buf) noexcept;
    std::size_t size;
    bool is_inline;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* buf) { return std::launder(static_cast<Fn*>(buf)); }
    static void invoke(void* buf) { (*get(buf))(); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* from = get(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void destroy(void* buf) noexcept { get(buf)->~Fn(); }
    // Trivial captures (ids, pointers, extents) relocate by memcpy.
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                                     std::is_trivially_destructible_v<Fn>;
    static constexpr Ops kOps{&invoke, kTrivial ? nullptr : &relocate,
                              kTrivial ? nullptr : &destroy, sizeof(Fn),
                              true};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* buf) {
      Fn* boxed = nullptr;
      std::memcpy(&boxed, buf, sizeof boxed);
      return boxed;
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void destroy(void* buf) noexcept { delete get(buf); }
    // The buffer holds only the pointer, which relocates by memcpy.
    static constexpr Ops kOps{&invoke, nullptr, &destroy, sizeof(Fn*),
                              false};
  };

  void take(Action& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, ops_->size);
    }
    other.ops_ = nullptr;
  }

  // Raw storage: only the bytes the held callable occupies are meaningful.
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace tapesim::sim
