#include "session/registry.h"

namespace qlearn {
namespace session {

using common::Result;
using common::Status;

ScenarioRegistry* ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return registry;
}

Status ScenarioRegistry::Register(ScenarioInfo info, Factory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->info.name == info.name) {
      return Status::InvalidArgument("scenario already registered: " +
                                     info.name);
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->info = std::move(info);
  entry->factory = std::move(factory);
  entries_.push_back(std::move(entry));
  return Status::OK();
}

ScenarioRegistry::Entry* ScenarioRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->info.name == name) return entry.get();
  }
  return nullptr;
}

Result<std::shared_ptr<const ScenarioUniverse>> ScenarioRegistry::Universe(
    const std::string& name) const {
  Entry* entry = Find(name);
  if (entry == nullptr) return NotFoundError(name);
  std::lock_guard<std::mutex> lock(entry->build_mutex);
  if (entry->universe == nullptr) {
    auto built = entry->factory();
    if (!built.ok()) return built.status();
    entry->universe = std::move(built).value();
  }
  return entry->universe;
}

Result<std::unique_ptr<ScenarioSession>> ScenarioRegistry::Create(
    const std::string& name, const SessionOptions& options) const {
  auto universe = Universe(name);
  if (!universe.ok()) return universe.status();
  return universe.value()->NewSession(options);
}

Result<ScenarioInfo> ScenarioRegistry::Describe(const std::string& name) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) return NotFoundError(name);
  return entry->info;
}

Status ScenarioRegistry::NotFoundError(const std::string& name) const {
  std::string available;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : entries_) {
      if (!available.empty()) available += ", ";
      available += entry->info.name;
    }
  }
  std::string message = "unknown scenario: " + name;
  if (!available.empty()) message += " (available: " + available + ")";
  return Status::NotFound(std::move(message));
}

bool ScenarioRegistry::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::vector<ScenarioInfo> ScenarioRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ScenarioInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& entry : entries_) infos.push_back(entry->info);
  return infos;
}

}  // namespace session
}  // namespace qlearn
