#include "nn/executor.hpp"

#include <algorithm>
#include <iterator>

namespace skiptrain::nn {

Sequential& ExecutorCache::attach(Sequential& model) {
  const std::string& signature = model.signature();
  auto hit = std::find_if(
      entries_.rbegin(), entries_.rend(),
      [&](const Entry& entry) { return entry.signature == signature; });
  if (hit == entries_.rend()) {
    if (entries_.size() == kMaxEntries) entries_.erase(entries_.begin());
    entries_.push_back(Entry{signature, model.clone()});
  } else if (hit != entries_.rbegin()) {
    // Move the entry to the most-recently-used end.
    std::rotate(std::prev(hit.base()), hit.base(), entries_.end());
  }
  Sequential& executor = entries_.back().executor;
  executor.attach_parameter_arena(model.parameter_arena());
  return executor;
}

}  // namespace skiptrain::nn
