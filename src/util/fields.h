// Field lists: a counter record (EngineCounters, StateStoreStats, SimStats)
// lists its fields once, as (name, pointer-to-member) pairs in declaration
// order.  Arithmetic, snapshot I/O and the store digest walk that list; a
// member left off it fails the record's static_assert(fields_cover<R>()).
#pragma once

#include <cstddef>
#include <tuple>
#include <type_traits>

namespace gatpg::util {

template <typename Record, typename T>
struct Field {
  const char* name;
  T Record::*member;
};
template <typename Record, typename T>
Field(const char*, T Record::*) -> Field<Record, T>;

/// Calls fn(name, r.*member, rs.*member...) for every field of the records
/// (all of one type, any constness) in list order.  A field that has a list
/// of its own is walked in place, so nested records flatten.
template <typename Fn, typename R, typename... Rs>
constexpr void for_each_field(Fn&& fn, R& r, Rs&... rs) {
  const auto visit = [&](const auto& f) {
    using T = std::remove_cvref_t<decltype(r.*f.member)>;
    if constexpr (requires { T::fields(); }) {
      for_each_field(fn, r.*f.member, rs.*f.member...);
    } else {
      fn(f.name, r.*f.member, rs.*f.member...);
    }
  };
  std::apply([&](const auto&... f) { (visit(f), ...); },
             std::remove_const_t<R>::fields());
}

/// True when the listed fields account for every byte of the record.
template <typename R>
constexpr bool fields_cover() {
  R r{};
  std::size_t bytes = 0;
  for_each_field([&](auto, const auto& v) { bytes += sizeof(v); }, r);
  return bytes == sizeof(R);
}

}  // namespace gatpg::util
