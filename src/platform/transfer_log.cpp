#include "platform/transfer_log.hpp"

#include <map>
#include <sstream>

#include "common/types.hpp"

namespace cods {

void TransferLog::record(const TransferRecord& record) {
  MutexLock lock(mutex_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(record);
}

size_t TransferLog::size() const {
  MutexLock lock(mutex_);
  return records_.size();
}

u64 TransferLog::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

std::vector<TransferRecord> TransferLog::snapshot() const {
  MutexLock lock(mutex_);
  return records_;
}

void TransferLog::clear() {
  MutexLock lock(mutex_);
  records_.clear();
  dropped_ = 0;
}

namespace {

const char* cls_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kInterApp: return "inter-app";
    case TrafficClass::kIntraApp: return "intra-app";
    case TrafficClass::kControl: return "control";
  }
  return "?";
}

}  // namespace

std::string TransferLog::summary() const {
  MutexLock lock(mutex_);
  struct Agg {
    u64 count = 0;
    u64 bytes = 0;
  };
  std::map<std::tuple<i32, TrafficClass, bool>, Agg> groups;
  for (const TransferRecord& r : records_) {
    Agg& agg = groups[{r.app_id, r.cls, r.via_network}];
    ++agg.count;
    agg.bytes += r.bytes;
  }
  std::ostringstream os;
  for (const auto& [key, agg] : groups) {
    const auto& [app, cls, net] = key;
    os << "app " << app << " " << cls_name(cls) << " "
       << (net ? "net" : "shm") << ": " << agg.count << " transfers, "
       << format_bytes(agg.bytes) << "\n";
  }
  if (dropped_ > 0) os << "(dropped " << dropped_ << " records)\n";
  return os.str();
}

}  // namespace cods
