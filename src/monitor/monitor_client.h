// Client-side access to (possibly remote) monitors.
//
// MonitorClient is the typed DII wrapper a smart proxy uses to talk to the
// monitor on a server's host; make_remote_monitor_wrapper exposes the same
// operations to Luma strategy code (self._loadavgmon:getvalue() etc.).
#pragma once

#include <string>

#include "monitor/monitor.h"
#include "orb/orb.h"
#include "script/engine.h"

namespace adapt::monitor {

class MonitorClient {
 public:
  MonitorClient() = default;
  MonitorClient(orb::OrbPtr orb, ObjectRef ref);

  [[nodiscard]] bool valid() const { return orb_ != nullptr && !ref_.empty(); }
  [[nodiscard]] const ObjectRef& ref() const { return ref_; }

  [[nodiscard]] Value getvalue() const;
  void setvalue(const Value& v) const;
  [[nodiscard]] Value getAspectValue(const std::string& name) const;
  void defineAspect(const std::string& name, const std::string& update_code) const;
  [[nodiscard]] std::vector<std::string> definedAspects() const;
  std::string attachEventObserver(const ObjectRef& observer, const std::string& event_id,
                                  const std::string& predicate_code) const;
  void detachEventObserver(const std::string& observer_id) const;
  /// Forces an update cycle (mostly for tests and examples).
  void update() const;

 private:
  void require() const {
    if (!valid()) throw MonitorError("MonitorClient: empty handle");
  }
  orb::OrbPtr orb_;
  ObjectRef ref_;
};

/// Builds a Luma table wrapping a remote monitor: methods getvalue,
/// setvalue, getAspectValue, defineAspect, definedAspects,
/// attachEventObserver, detachEventObserver, update. The table also carries
/// `ref` (the stringified ObjectRef).
Value make_remote_monitor_wrapper(const orb::OrbPtr& orb, const ObjectRef& ref);

}  // namespace adapt::monitor
