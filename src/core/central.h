// Centralized schedule management — the §3.3 baseline.
//
// One controller holds the entire schedule and, one block service ahead of
// each due time, sends the serving cub a ~100-byte command ("about the size
// of the comparable message sent from cub to cub in the distributed
// system"). Cubs are dumb executors: no views, no forwarding.
//
// The paper's argument: at ~40,000 streams / ~1000 cubs the controller must
// sustain 3-4 MB/s of reliable control traffic to a thousand destinations,
// "probably beyond the capability of the class of personal computers used to
// construct a Tiger system". The scalability bench measures exactly this
// curve against the distributed implementation.

#ifndef SRC_CORE_CENTRAL_H_
#define SRC_CORE_CENTRAL_H_

#include <memory>
#include <queue>
#include <vector>

#include "src/common/ids.h"
#include "src/core/address_book.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/disk/disk.h"
#include "src/layout/catalog.h"
#include "src/layout/striping.h"
#include "src/net/network.h"
#include "src/schedule/geometry.h"
#include "src/sim/actor.h"
#include "src/stats/meter.h"

namespace tiger {

// A cub that only obeys controller commands.
class CentralCub : public Actor, public NetworkEndpoint {
 public:
  CentralCub(Simulator* sim, CubId id, const TigerConfig* config, const Catalog* catalog,
             const StripeLayout* layout, MessageBus* net, Rng rng);

  void AttachDisks(std::vector<SimulatedDisk*> disks) { disks_ = std::move(disks); }

  NetAddress address() const { return address_; }
  int64_t blocks_sent() const { return blocks_sent_; }
  int64_t commands_received() const { return commands_received_; }
  const CumulativeMeter& cpu_meter() const { return cpu_; }

  void HandleMessage(const MessageEnvelope& envelope) override;

 private:
  CubId id_;
  const TigerConfig* config_;
  const Catalog* catalog_;
  const StripeLayout* layout_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  Rng rng_;
  std::vector<SimulatedDisk*> disks_;
  int64_t blocks_sent_ = 0;
  int64_t commands_received_ = 0;
  CumulativeMeter cpu_;
};

// The all-knowing controller.
class CentralController : public Actor, public NetworkEndpoint {
 public:
  CentralController(Simulator* sim, const TigerConfig* config, const Catalog* catalog,
                    const StripeLayout* layout, const ScheduleGeometry* geometry,
                    MessageBus* net);

  void SetAddressBook(const AddressBook* addresses) { addresses_ = addresses; }

  // Occupies a free slot with a synthetic always-playing stream.
  // Returns false if the schedule is full.
  bool AddStream(FileId file, NetAddress client, int64_t bitrate_bps);

  // Begins issuing per-block commands.
  void Start();

  NetAddress address() const { return address_; }
  int64_t commands_sent() const { return commands_sent_; }
  const CumulativeMeter& cpu_meter() const { return cpu_; }
  int64_t active_streams() const { return active_streams_; }

  void HandleMessage(const MessageEnvelope& /*envelope*/) override {}

 private:
  struct SlotState {
    bool occupied = false;
    ViewerStateRecord record;  // Template for the next command.
    DiskId next_disk;          // Disk that serves the next block.
    TimePoint next_due;
  };
  struct PendingCommand {
    TimePoint send_at;
    uint32_t slot;
    bool operator>(const PendingCommand& o) const { return send_at > o.send_at; }
  };

  void Pump();
  void IssueCommand(SlotState& slot);

  const TigerConfig* config_;
  const Catalog* catalog_;
  const StripeLayout* layout_;
  const ScheduleGeometry* geometry_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  const AddressBook* addresses_ = nullptr;
  std::vector<SlotState> slots_;
  std::priority_queue<PendingCommand, std::vector<PendingCommand>, std::greater<>> pending_;
  int64_t commands_sent_ = 0;
  int64_t active_streams_ = 0;
  uint64_t next_instance_ = 1;
  CumulativeMeter cpu_;
  bool started_ = false;
};

// Builder owning a full centralized system (mirror of TigerSystem's shape).
class CentralSystem {
 public:
  explicit CentralSystem(TigerConfig config, uint64_t seed = 1);

  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  CentralController& controller() { return *controller_; }
  const ScheduleGeometry& geometry() const { return *geometry_; }
  const TigerConfig& config() const { return config_; }

  Result<FileId> AddFile(std::string name, int64_t bitrate_bps, Duration duration);
  // Fills `count` slots with synthetic streams addressed to `sink`.
  int BootstrapStreams(int count, NetAddress sink, FileId file, int64_t bitrate_bps);
  void Start() { controller_->Start(); }

  double ControllerCpu(TimePoint a, TimePoint b) const;
  double ControllerControlTrafficBps(TimePoint a, TimePoint b) const;
  int64_t TotalBlocksSent() const;

 private:
  TigerConfig config_;
  Rng rng_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<StripeLayout> layout_;
  std::unique_ptr<ScheduleGeometry> geometry_;
  std::vector<std::unique_ptr<SimulatedDisk>> disks_;
  std::vector<std::unique_ptr<CentralCub>> cubs_;
  std::unique_ptr<CentralController> controller_;
  AddressBook addresses_;
};

}  // namespace tiger

#endif  // SRC_CORE_CENTRAL_H_
