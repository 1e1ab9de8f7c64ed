#include "monitor/monitor_client.h"

namespace adapt::monitor {

namespace {
// Monitor reads (getvalue, getAspectValue, definedAspects) are always safe
// to re-execute: mark them idempotent so the transport retries them.
orb::InvokeOptions read_options() {
  orb::InvokeOptions options;
  options.idempotent = true;
  return options;
}
}  // namespace

MonitorClient::MonitorClient(orb::OrbPtr orb, ObjectRef ref)
    : orb_(std::move(orb)), ref_(std::move(ref)) {}

Value MonitorClient::getvalue() const {
  require();
  return orb_->invoke(ref_, "getvalue", {}, read_options());
}

void MonitorClient::setvalue(const Value& v) const {
  require();
  orb_->invoke(ref_, "setvalue", {v});
}

Value MonitorClient::getAspectValue(const std::string& name) const {
  require();
  return orb_->invoke(ref_, "getAspectValue", {Value(name)}, read_options());
}

void MonitorClient::defineAspect(const std::string& name,
                                 const std::string& update_code) const {
  require();
  orb_->invoke(ref_, "defineAspect", {Value(name), Value(update_code)});
}

std::vector<std::string> MonitorClient::definedAspects() const {
  require();
  const Value v = orb_->invoke(ref_, "definedAspects", {}, read_options());
  std::vector<std::string> out;
  if (v.is_table()) {
    const Table& t = *v.as_table();
    for (int64_t i = 1; i <= t.length(); ++i) out.push_back(t.geti(i).as_string());
  }
  return out;
}

std::string MonitorClient::attachEventObserver(const ObjectRef& observer,
                                               const std::string& event_id,
                                               const std::string& predicate_code) const {
  require();
  return orb_
      ->invoke(ref_, "attachEventObserver",
               {Value(observer), Value(event_id), Value(predicate_code)})
      .as_string();
}

void MonitorClient::detachEventObserver(const std::string& observer_id) const {
  require();
  orb_->invoke(ref_, "detachEventObserver", {Value(observer_id)});
}

void MonitorClient::update() const {
  require();
  orb_->invoke(ref_, "update");
}

Value make_remote_monitor_wrapper(const orb::OrbPtr& orb, const ObjectRef& ref) {
  auto t = Table::make();
  auto client = std::make_shared<MonitorClient>(orb, ref);
  auto method = [&](const char* name, std::function<ValueList(const ValueList&)> fn) {
    t->set(Value(name), Value(NativeFunction::make(std::string("monitor.") + name,
                                                   std::move(fn))));
  };
  method("getvalue", [client](const ValueList&) -> ValueList {
    return {client->getvalue()};
  });
  method("setvalue", [client](const ValueList& a) -> ValueList {
    client->setvalue(a.size() > 1 ? a[1] : Value());
    return {};
  });
  method("getAspectValue", [client](const ValueList& a) -> ValueList {
    return {client->getAspectValue(a.at(1).as_string())};
  });
  method("defineAspect", [client](const ValueList& a) -> ValueList {
    client->defineAspect(a.at(1).as_string(), a.at(2).as_string());
    return {};
  });
  method("definedAspects", [client](const ValueList&) -> ValueList {
    auto list = Table::make();
    for (const auto& name : client->definedAspects()) list->append(Value(name));
    return {Value(std::move(list))};
  });
  method("attachEventObserver", [client](const ValueList& a) -> ValueList {
    return {Value(client->attachEventObserver(a.at(1).as_object(), a.at(2).as_string(),
                                              a.at(3).as_string()))};
  });
  method("detachEventObserver", [client](const ValueList& a) -> ValueList {
    client->detachEventObserver(a.at(1).as_string());
    return {};
  });
  method("update", [client](const ValueList&) -> ValueList {
    client->update();
    return {};
  });
  t->set(Value("ref"), Value(ref.str()));
  return Value(std::move(t));
}

}  // namespace adapt::monitor
