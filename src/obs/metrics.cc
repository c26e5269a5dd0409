#include "obs/metrics.h"

namespace monkeydb {

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kGetLatency: return "get_latency_us";
    case Hist::kMultiGetLatency: return "multiget_latency_us";
    case Hist::kWriteLatency: return "write_latency_us";
    case Hist::kWriteQueueWait: return "write_queue_wait_us";
    case Hist::kWalWriteLatency: return "wal_write_latency_us";
    case Hist::kWalSyncLatency: return "wal_sync_latency_us";
    case Hist::kMemtableApplyLatency: return "memtable_apply_latency_us";
    case Hist::kIterSeekLatency: return "iter_seek_latency_us";
    case Hist::kIterNextLatency: return "iter_next_latency_us";
    case Hist::kFlushLatency: return "flush_latency_us";
    case Hist::kMergeLatency: return "merge_latency_us";
    case Hist::kSubcompactionLatency: return "subcompaction_latency_us";
    case Hist::kBlockCacheLookupLatency:
      return "block_cache_lookup_latency_us";
    case Hist::kBlockReadLatency: return "block_read_latency_us";
    case Hist::kWriteGroupSize: return "write_group_size";
    case Hist::kParallelApplyFanout: return "parallel_apply_fanout";
    case Hist::kServerGetLatency: return "server_get_latency_us";
    case Hist::kServerSetLatency: return "server_set_latency_us";
    case Hist::kServerDelLatency: return "server_del_latency_us";
    case Hist::kServerMGetLatency: return "server_mget_latency_us";
    case Hist::kServerMSetLatency: return "server_mset_latency_us";
    case Hist::kServerScanLatency: return "server_scan_latency_us";
    case Hist::kServerOtherLatency: return "server_other_latency_us";
    case Hist::kServerPipelineDepth: return "server_pipeline_depth";
    case Hist::kNumHistograms: break;
  }
  return "unknown";
}

const char* TickName(Tick t) {
  switch (t) {
    case Tick::kListenerCallbacks: return "listener_callbacks";
    case Tick::kListenerFailures: return "listener_failures";
    case Tick::kLoggerRotations: return "logger_rotations";
    case Tick::kServerConnectionsAccepted:
      return "server_connections_accepted";
    case Tick::kServerConnectionsClosed: return "server_connections_closed";
    case Tick::kServerCommands: return "server_commands";
    case Tick::kServerProtocolErrors: return "server_protocol_errors";
    case Tick::kServerBackpressurePauses:
      return "server_backpressure_pauses";
    case Tick::kServerOverlimitCloses: return "server_overlimit_closes";
    case Tick::kServerHttpRequests: return "server_http_requests";
    case Tick::kNumTicks: break;
  }
  return "unknown";
}

MetricsRegistry::~MetricsRegistry() {
  for (std::atomic<ShardData*>& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

MetricsRegistry::ShardData* MetricsRegistry::InstallShard(uint32_t idx) {
  auto* fresh = new ShardData();
  ShardData* installed = nullptr;
  if (shards_[idx].compare_exchange_strong(installed, fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;  // Another thread striped onto idx installed first.
  return installed;
}

int MetricsRegistry::MaterializedShards() const {
  int installed = 0;
  for (const std::atomic<ShardData*>& slot : shards_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++installed;
  }
  return installed;
}

HistogramData MetricsRegistry::SnapshotHistogram(Hist h) const {
  HistogramMerger merger;
  MergeHistogram(h, &merger);
  return merger.Snapshot();
}

void MetricsRegistry::MergeHistogram(Hist h, HistogramMerger* merger) const {
  for (const std::atomic<ShardData*>& slot : shards_) {
    const ShardData* shard = slot.load(std::memory_order_acquire);
    if (shard != nullptr) merger->Add(shard->hists[static_cast<int>(h)]);
  }
}

uint64_t MetricsRegistry::TickTotal(Tick t) const {
  uint64_t total = 0;
  for (const std::atomic<ShardData*>& slot : shards_) {
    const ShardData* shard = slot.load(std::memory_order_acquire);
    if (shard != nullptr) {
      total += shard->ticks[static_cast<int>(t)].load(
          std::memory_order_relaxed);
    }
  }
  return total;
}

void MetricsRegistry::Reset() {
  for (std::atomic<ShardData*>& slot : shards_) {
    ShardData* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (auto& h : shard->hists) h.Reset();
    for (auto& t : shard->ticks) t.store(0, std::memory_order_relaxed);
  }
}

}  // namespace monkeydb
