// A non-owning reference to a callable: one object pointer and one function
// pointer, no allocation. It is how the chunk pipeline takes per-call hooks
// (an in-order byte consumer, a gate) through non-template entry points
// without a std::function per call. The referenced callable must outlive
// every call; a default-constructed FunctionRef is empty and tests false.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace mhhea::util {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() noexcept = default;

  template <class F, std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                                          std::is_invocable_r_v<R, F&, Args...>,
                                      int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert implicitly
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }
  explicit operator bool() const noexcept { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace mhhea::util
