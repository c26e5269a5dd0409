#include "sstable/table_builder.h"

#include <cassert>

#include "util/coding.h"
#include "util/hash.h"

namespace monkeydb {

TableBuilder::TableBuilder(const TableBuilderOptions& options,
                           WritableFile* file)
    : options_(options),
      file_(file),
      data_block_(options.restart_interval),
      index_block_(1) {
  filter_builder_.Reserve(options.expected_entries);
}

void TableBuilder::Add(const Slice& internal_key, const Slice& value) {
  if (!status_.ok() || finished_) return;

  // A block must fit in one page together with its 5-byte trailer; flush
  // before adding if this entry would overflow.
  const size_t entry_upper_bound =
      internal_key.size() + value.size() + 15 /* varints */ +
      sizeof(uint32_t) /* possible restart */;
  if (!data_block_.empty() &&
      data_block_.CurrentSizeEstimate() + entry_upper_bound +
              kBlockTrailerSize >
          options_.block_size) {
    FlushDataBlock();
  }

  if (smallest_key_.empty() && num_entries_ == 0) {
    smallest_key_.assign(internal_key.data(), internal_key.size());
  }
  largest_key_.assign(internal_key.data(), internal_key.size());

  data_block_.Add(internal_key, value);
  filter_builder_.AddKey(ExtractUserKey(internal_key));
  last_internal_key_.assign(internal_key.data(), internal_key.size());
  num_entries_++;
}

void TableBuilder::FlushDataBlock() {
  if (data_block_.empty() || !status_.ok()) return;
  Slice payload = data_block_.Finish();
  BlockHandle handle;
  status_ = WriteRawBlock(payload, &handle, /*pad_to_page=*/true);
  data_block_.Reset();
  if (!status_.ok()) return;
  num_data_blocks_++;

  // Fence pointer: the last internal key of the block maps to its handle.
  std::string handle_encoding;
  handle.EncodeTo(&handle_encoding);
  index_block_.Add(Slice(last_internal_key_), Slice(handle_encoding));
}

Status TableBuilder::WriteRawBlock(const Slice& payload, BlockHandle* handle,
                                   bool pad_to_page) {
  handle->offset = offset_;
  handle->size = payload.size();

  // Payload, type byte, masked CRC over payload+type, then zero padding to
  // the page boundary. The payload goes to the (buffered) file straight
  // from the block builder; only the trailer and the padding are staged,
  // in one reused buffer whose padding stays zeroed.
  size_t tail_size = kBlockTrailerSize;
  if (pad_to_page) {
    const size_t remainder =
        (offset_ + payload.size() + tail_size) % options_.block_size;
    if (remainder != 0) tail_size += options_.block_size - remainder;
  }
  if (trailer_.size() < tail_size) trailer_.resize(tail_size, '\0');
  char* trailer = trailer_.data();
  trailer[0] = kNoCompression;
  const uint32_t crc =
      Crc32cExtend(Crc32c(payload.data(), payload.size()), trailer, 1);
  EncodeFixed32(trailer + 1, MaskCrc(crc));

  MONKEYDB_RETURN_IF_ERROR(file_->Append(payload));
  MONKEYDB_RETURN_IF_ERROR(file_->Append(Slice(trailer, tail_size)));
  offset_ += payload.size() + tail_size;
  return Status::OK();
}

Status TableBuilder::Finish() {
  if (finished_) return status_;
  FlushDataBlock();
  finished_ = true;
  if (!status_.ok()) return status_;

  Footer footer;

  // Filter block (may be empty if FPR >= 1).
  std::string filter = filter_builder_.FinishForFpr(options_.filter_fpr);
  filter_size_bits_ = BloomFilterReader::SizeBits(filter);
  status_ = WriteRawBlock(Slice(filter), &footer.filter_handle,
                          /*pad_to_page=*/false);
  if (!status_.ok()) return status_;

  // Index block (fence pointers).
  Slice index_payload = index_block_.Finish();
  status_ = WriteRawBlock(index_payload, &footer.index_handle,
                          /*pad_to_page=*/false);
  if (!status_.ok()) return status_;

  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  status_ = file_->Append(footer_encoding);
  if (status_.ok()) offset_ += footer_encoding.size();
  return status_;
}

}  // namespace monkeydb
