// Move-only callable wrapper whose callable always lives in a fixed inline
// buffer.
//
// std::function's small-buffer optimization tops out around two pointers on
// libstdc++, so the simulator's event closures — a radio completion handler
// captures ~80 bytes (receiver list, frame, sequence number), a mobility
// replay step ~40 — would heap-allocate on every schedule() call. An
// InlineFunction accepts only callables that fit its buffer and move without
// throwing; anything else does not convert (a compile error at the call
// site), so holding a closure never allocates. A capture too large for the
// buffer moves its bulk behind a pointer it owns, as FaultInjector::install
// does with its shared FaultEvent.
//
// Differences from std::function, on purpose:
//   * move-only (no copy);
//   * no target_type()/target() introspection;
//   * invoking an empty InlineFunction is a programming error (asserted),
//     not std::bad_function_call.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace pds {

template <typename Signature, std::size_t Capacity = 104>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  // The storage rule: a callable converts only when it fits the buffer and
  // moves without throwing, since the wrapper's own move is noexcept.
  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

 public:
  InlineFunction() = default;

  // The first clause keeps the wrapper's own moves and copies away from this
  // template, so checking the rule never asks whether InlineFunction itself
  // moves without throwing.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction>) &&
            std::is_invocable_r_v<R, std::decay_t<F>&, Args...> &&
            kFitsInline<std::decay_t<F>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    ::new (storage()) D(std::forward<F>(f));
    invoke_ = [](void* s, Args&&... args) -> R {
      return (*std::launder(static_cast<D*>(s)))(std::forward<Args>(args)...);
    };
    manage_ = [](Op op, void* self, void* to) {
      D* src = std::launder(static_cast<D*>(self));
      if (op == Op::kMove) ::new (to) D(std::move(*src));
      src->~D();
    };
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    PDS_ENSURE(invoke_ != nullptr);
    return invoke_(storage(), std::forward<Args>(args)...);
  }

  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage(), nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  static constexpr std::size_t capacity() { return Capacity; }

 private:
  enum class Op { kDestroy, kMove };

  using Invoke = R (*)(void*, Args&&...);
  // kDestroy: destroy the callable at `self`.
  // kMove: move-construct from `self` into `to` and destroy `self`.
  using Manage = void (*)(Op, void* self, void* to);

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMove, other.storage(), storage());
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void* storage() { return static_cast<void*>(buf_); }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace pds
