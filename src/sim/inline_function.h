// A move-only, type-erased `void()` callable with small-buffer
// optimization — the event queue's replacement for std::function.
//
// Callables whose state fits `Capacity` bytes (and is nothrow-move-
// constructible) are stored inline; larger or throwing-move callables
// fall back to a single heap allocation. The hot-path simulator lambdas
// (a `this` pointer, a Port reference, a pooled PacketPtr) are all well
// under the default 48-byte budget, so scheduling an event allocates
// nothing.
//
// Ownership: the wrapper owns the callable; moving the wrapper relocates
// (inline case) or re-points (heap case) it through an indirect call.
// emplace() builds a callable in place and so skips that call. Invoking
// a moved-from or empty wrapper is undefined, exactly like std::function
// minus the bad_function_call ceremony the simulator never wants.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pdq::sim {

template <std::size_t Capacity = 48>
class InlineFunction {
  // The heap fallback stores a pointer in the buffer.
  static_assert(Capacity >= sizeof(void*),
                "InlineFunction capacity below pointer size");

 public:
  static constexpr std::size_t kCapacity = Capacity;

  InlineFunction() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  /// Replaces the held callable with `f`, constructed directly in this
  /// wrapper's storage: no temporary wrapper and no relocate. The event
  /// queue builds each event's callable in its slot this way.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        ops_ = o.ops_;
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when a callable of type D would be stored inline (test hook).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= Capacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
  };

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace pdq::sim
