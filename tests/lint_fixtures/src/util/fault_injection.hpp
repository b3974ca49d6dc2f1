// Fixture registry: the only live site is "demo.site". Everything else a
// fixture file names must be flagged by [fault-site], and so must
// "dead.site": it is registered, but no fault_point(...) reaches it.
#pragma once

namespace fixture {

inline constexpr const char* kFaultDemoSite = "demo.site";
inline constexpr const char* kFaultDeadSite = "dead.site";

inline bool fault_point(const char* site) { return site != nullptr; }

}  // namespace fixture
