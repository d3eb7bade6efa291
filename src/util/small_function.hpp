// Move-only callable with inline small-object storage.
//
// The simulation kernel creates and destroys millions of short-lived
// callables (event callbacks, work-item cost/completion functions), almost
// all of them lambdas capturing a `this` pointer and a few scalars.
// std::function's inline buffer (16 bytes in libstdc++) spills most of
// those to the heap; SmallFunction stores anything up to `InlineBytes`
// in place, so the event queue's pooled slots recycle the storage and the
// hot path performs no allocation at all. Larger captures still work —
// they fall back to a heap box — they just lose the inline fast path.
//
// Moves relocate: the callable moves into the new storage and the source
// is left empty. A callable that is trivially copyable and trivially
// destructible (a lambda capturing pointers and scalars) and the heap
// box's pointer relocate as bytes, a fixed-size memcpy of the storage with
// no indirect call; the first also needs no destroy call. An event is
// moved several times between its creation and its call, so this is most
// of what a move costs.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace saisim {

template <typename Signature, u64 InlineBytes = 48>
class SmallFunction;

template <typename R, typename... Args, u64 InlineBytes>
class SmallFunction<R(Args...), InlineBytes> {
 public:
  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kInlineable<Fn>) {
      ::new (storage_) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (storage_) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  SmallFunction(SmallFunction&& o) noexcept { move_from(o); }
  SmallFunction& operator=(SmallFunction&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  /// Destroy the held callable (and release any heap box).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    SAISIM_CHECK_MSG(ops_ != nullptr, "calling an empty SmallFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  static_assert(InlineBytes >= sizeof(void*),
                "storage must at least hold the heap-box pointer");

  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move the callable from `src` storage into raw `dst` storage and
    /// destroy the source (relocation, used by the move operations). Null:
    /// relocate by copying the storage's bytes.
    void (*relocate)(void* dst, void* src);
    /// Null: nothing to destroy.
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool kInlineable =
      sizeof(Fn) <= InlineBytes &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr bool kBitwise = std::is_trivially_copyable_v<Fn> &&
                                   std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return (*std::launder(static_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      },
      kBitwise<Fn> ? nullptr
                   : +[](void* dst, void* src) {
                       Fn* f = std::launder(static_cast<Fn*>(src));
                       ::new (dst) Fn(std::move(*f));
                       f->~Fn();
                     },
      kBitwise<Fn>
          ? nullptr
          : +[](void* s) { std::launder(static_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kBoxedOps{
      [](void* s, Args&&... args) -> R {
        return (**std::launder(static_cast<Fn**>(s)))(
            std::forward<Args>(args)...);
      },
      nullptr,  // the box pointer relocates as bytes
      [](void* s) { delete *std::launder(static_cast<Fn**>(s)); },
  };

  void move_from(SmallFunction& o) {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, o.storage_);
      } else {
        // The bytes past the callable are never written; copying them is
        // harmless, and a fixed size keeps the copy a few plain moves.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
        std::memcpy(storage_, o.storage_, InlineBytes);
#pragma GCC diagnostic pop
      }
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace saisim
