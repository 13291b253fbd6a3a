#include "diff/edit_script.hpp"

#include <algorithm>
#include <iterator>
#include <span>

#include "util/crc32.hpp"
#include "util/text.hpp"

namespace shadow::diff {

std::size_t EditScript::inserted_bytes() const {
  std::size_t total = 0;
  for (const auto& cmd : commands) {
    for (const auto& line : cmd.text) total += line.size();
  }
  return total;
}

namespace {

// Shared hunk-emission core: consumes line VIEWS (into the caller's
// old/new buffers) and materializes owning strings only for the inserted
// text each hunk actually carries.
EditScript build_ed_script_views(std::span<const std::string_view> old_lines,
                                 std::span<const std::string_view> new_lines,
                                 std::string_view old_text,
                                 std::string_view new_text,
                                 const MatchList& matches) {
  EditScript script;
  script.old_line_count = old_lines.size();
  script.new_line_count = new_lines.size();
  script.old_crc = crc32(reinterpret_cast<const u8*>(old_text.data()),
                         old_text.size());
  script.new_crc = crc32(reinterpret_cast<const u8*>(new_text.data()),
                         new_text.size());

  // Walk the gaps between consecutive matches; each gap is one hunk:
  // old[oi..match.old) replaced by new[nj..match.new).
  std::vector<EdCommand> ascending;
  std::size_t oi = 0;  // next unconsumed old line
  std::size_t nj = 0;  // next unconsumed new line
  auto emit_hunk = [&](std::size_t old_end, std::size_t new_end) {
    const bool has_del = old_end > oi;
    const bool has_ins = new_end > nj;
    if (!has_del && !has_ins) return;
    EdCommand cmd;
    if (has_del && has_ins) {
      cmd.kind = EdCommand::Kind::kChange;
      cmd.line1 = oi + 1;
      cmd.line2 = old_end;
    } else if (has_del) {
      cmd.kind = EdCommand::Kind::kDelete;
      cmd.line1 = oi + 1;
      cmd.line2 = old_end;
    } else {
      cmd.kind = EdCommand::Kind::kAppend;
      cmd.line1 = oi;  // insert after the line before the gap (0 = front)
      cmd.line2 = oi;
    }
    cmd.text.reserve(new_end - nj);
    for (std::size_t j = nj; j < new_end; ++j) {
      cmd.text.emplace_back(new_lines[j]);
    }
    ascending.push_back(std::move(cmd));
  };

  for (const auto& match : matches) {
    emit_hunk(match.old_index, match.new_index);
    oi = match.old_index + 1;
    nj = match.new_index + 1;
  }
  emit_hunk(old_lines.size(), new_lines.size());

  // Ed order: descending so earlier applications don't renumber later ones.
  script.commands.assign(std::make_move_iterator(ascending.rbegin()),
                         std::make_move_iterator(ascending.rend()));
  return script;
}

}  // namespace

EditScript build_ed_script(const LineTable& table, std::string_view old_text,
                           std::string_view new_text,
                           const MatchList& matches) {
  return build_ed_script_views(table.old_lines(), table.new_lines(),
                               old_text, new_text, matches);
}

EditScript build_ed_script(std::string_view old_text,
                           std::string_view new_text,
                           const MatchList& matches) {
  const auto old_lines = split_line_views(old_text);
  const auto new_lines = split_line_views(new_text);
  return build_ed_script_views(old_lines, new_lines, old_text, new_text,
                               matches);
}

namespace {

// Core command replay, shared by apply_ed_script and the text parser.
//
// Commands run in script order (descending line1) with ed's sequential
// semantics: each one addresses the buffer its predecessors left. Because
// line1 strictly descends, that buffer is always an untouched base prefix
// followed by a "tail" the earlier commands produced. The tail is kept as
// a short list of runs (base line ranges and command text ranges), so no
// line is copied until one pass appends the prefix and every run into a
// single reserved output string.
struct Replayed {
  std::string text;
  u64 line_count = 0;  // as ed counts: base lines kept + text entries
};

Result<Replayed> replay_commands(std::string_view base,
                                 std::span<const std::string_view> base_lines,
                                 const std::vector<EdCommand>& commands) {
  // Tail entries base_lines[first, last) when `cmd` is null, else
  // cmd->text[first, last). Stored back to front: tail.back() is the run
  // right after the prefix, so prepending is push_back.
  struct Run {
    const EdCommand* cmd = nullptr;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<Run> tail;
  u64 tail_lines = 0;
  u64 prefix = base_lines.size();  // untouched leading base lines

  u64 prev_line1 = static_cast<u64>(base_lines.size()) + 2;
  for (const auto& cmd : commands) {
    // Commands must be strictly descending and within bounds.
    if (cmd.line1 >= prev_line1) {
      return Error{ErrorCode::kInvalidArgument,
                   "ed commands not in descending order"};
    }
    prev_line1 = cmd.line1 == 0 ? 1 : cmd.line1;
    const u64 buffer_lines = prefix + tail_lines;
    // Once the checks pass, descending order puts line1 inside the
    // prefix. Prefix lines from `keep_from` on survive the command and
    // move to the front of the tail.
    u64 keep_from = 0;
    if (cmd.kind == EdCommand::Kind::kAppend) {
      if (cmd.line1 > buffer_lines) {
        return Error{ErrorCode::kInvalidArgument,
                     "append position out of range"};
      }
      keep_from = cmd.line1;
    } else {
      if (cmd.line1 < 1 || cmd.line2 < cmd.line1 ||
          cmd.line2 > buffer_lines) {
        return Error{ErrorCode::kInvalidArgument,
                     "command range out of bounds"};
      }
      // A range reaching past the prefix also removes entries an earlier
      // command produced, from the front of the tail.
      u64 drop = cmd.line2 > prefix ? cmd.line2 - prefix : 0;
      while (drop > 0) {
        Run& front = tail.back();
        const u64 n = front.last - front.first;
        if (n > drop) {
          front.first += static_cast<std::size_t>(drop);
          tail_lines -= drop;
          break;
        }
        tail.pop_back();
        tail_lines -= n;
        drop -= n;
      }
      keep_from = std::min(cmd.line2, prefix);
    }
    if (keep_from < prefix) {
      tail.push_back(Run{nullptr, static_cast<std::size_t>(keep_from),
                         static_cast<std::size_t>(prefix)});
      tail_lines += prefix - keep_from;
    }
    // A delete ignores any text it carries, as ed does.
    if (cmd.kind != EdCommand::Kind::kDelete && !cmd.text.empty()) {
      tail.push_back(Run{&cmd, 0, cmd.text.size()});
      tail_lines += cmd.text.size();
    }
    prefix = cmd.kind == EdCommand::Kind::kAppend ? cmd.line1 : cmd.line1 - 1;
  }

  // Byte offset of base line i (base.size() past the last line).
  auto offset = [&](std::size_t i) {
    return i < base_lines.size()
               ? static_cast<std::size_t>(base_lines[i].data() - base.data())
               : base.size();
  };
  // Feeds the prefix and then every tail run, in output order, to `sink`.
  auto for_each_piece = [&](auto&& sink) {
    sink(base.substr(0, offset(static_cast<std::size_t>(prefix))));
    for (auto run = tail.rbegin(); run != tail.rend(); ++run) {
      if (run->cmd == nullptr) {
        const std::size_t from = offset(run->first);
        sink(base.substr(from, offset(run->last) - from));
        continue;
      }
      for (std::size_t j = run->first; j < run->last; ++j) {
        sink(std::string_view(run->cmd->text[j]));
      }
    }
  };
  std::size_t total = 0;
  for_each_piece([&](std::string_view piece) { total += piece.size(); });
  Replayed out;
  out.line_count = prefix + tail_lines;
  out.text.reserve(total);
  for_each_piece([&](std::string_view piece) { out.text.append(piece); });
  return out;
}

}  // namespace

Result<std::string> apply_ed_script(const std::string& base,
                                    const EditScript& script) {
  const u32 base_crc =
      crc32(reinterpret_cast<const u8*>(base.data()), base.size());
  if (base_crc != script.old_crc) {
    return Error{ErrorCode::kVersionMismatch,
                 "base content does not match script's old CRC"};
  }

  const auto base_lines = split_line_views(base);
  if (base_lines.size() != script.old_line_count) {
    return Error{ErrorCode::kVersionMismatch,
                 "base line count does not match script"};
  }
  SHADOW_ASSIGN_OR_RETURN(replayed,
                          replay_commands(base, base_lines, script.commands));

  const u32 result_crc = crc32(
      reinterpret_cast<const u8*>(replayed.text.data()), replayed.text.size());
  if (result_crc != script.new_crc) {
    return Error{ErrorCode::kInternal,
                 "reconstructed content fails target CRC check"};
  }
  return std::move(replayed.text);
}

void encode_ed_script(const EditScript& script, BufWriter& out) {
  out.put_u32(script.old_crc);
  out.put_u32(script.new_crc);
  out.put_varint(script.old_line_count);
  out.put_varint(script.new_line_count);
  out.put_varint(script.commands.size());
  // Line numbers are delta-encoded against the previous command's line1
  // (descending), so long scripts of small hunks stay compact.
  u64 prev = 0;
  for (const auto& cmd : script.commands) {
    out.put_u8(static_cast<u8>(cmd.kind));
    if (prev == 0) {
      out.put_varint(cmd.line1);
    } else {
      out.put_varint(prev - cmd.line1);  // descending => non-negative
    }
    prev = cmd.line1;
    out.put_varint(cmd.line2 >= cmd.line1 ? cmd.line2 - cmd.line1 : 0);
    out.put_varint(cmd.text.size());
    for (const auto& line : cmd.text) out.put_string(line);
  }
}

Result<EditScript> decode_ed_script(BufReader& in) {
  EditScript script;
  SHADOW_ASSIGN_OR_RETURN(old_crc, in.get_u32());
  SHADOW_ASSIGN_OR_RETURN(new_crc, in.get_u32());
  SHADOW_ASSIGN_OR_RETURN(old_count, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(new_count, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(num_commands, in.get_varint());
  script.old_crc = old_crc;
  script.new_crc = new_crc;
  script.old_line_count = old_count;
  script.new_line_count = new_count;
  u64 prev = 0;
  for (u64 i = 0; i < num_commands; ++i) {
    EdCommand cmd;
    SHADOW_ASSIGN_OR_RETURN(kind_byte, in.get_u8());
    if (kind_byte > 2) {
      return Error{ErrorCode::kProtocolError, "bad ed command kind"};
    }
    cmd.kind = static_cast<EdCommand::Kind>(kind_byte);
    SHADOW_ASSIGN_OR_RETURN(l1, in.get_varint());
    cmd.line1 = (prev == 0) ? l1 : prev - l1;
    if (prev != 0 && l1 > prev) {
      return Error{ErrorCode::kProtocolError, "ed line delta underflow"};
    }
    prev = cmd.line1;
    SHADOW_ASSIGN_OR_RETURN(span, in.get_varint());
    cmd.line2 = cmd.line1 + span;
    SHADOW_ASSIGN_OR_RETURN(num_lines, in.get_varint());
    if (num_lines > in.remaining()) {
      return Error{ErrorCode::kProtocolError, "ed text count exceeds buffer"};
    }
    cmd.text.reserve(static_cast<std::size_t>(num_lines));
    for (u64 j = 0; j < num_lines; ++j) {
      SHADOW_ASSIGN_OR_RETURN(line, in.get_string());
      cmd.text.push_back(std::move(line));
    }
    script.commands.push_back(std::move(cmd));
  }
  return script;
}

std::string ed_script_to_text(const EditScript& script) {
  std::string out;
  for (const auto& cmd : script.commands) {
    switch (cmd.kind) {
      case EdCommand::Kind::kAppend:
        out += std::to_string(cmd.line1) + "a\n";
        break;
      case EdCommand::Kind::kChange:
        out += std::to_string(cmd.line1);
        if (cmd.line2 != cmd.line1) out += "," + std::to_string(cmd.line2);
        out += "c\n";
        break;
      case EdCommand::Kind::kDelete:
        out += std::to_string(cmd.line1);
        if (cmd.line2 != cmd.line1) out += "," + std::to_string(cmd.line2);
        out += "d\n";
        continue;  // no text block for delete
    }
    for (const auto& line : cmd.text) {
      const bool had_newline = !line.empty() && line.back() == '\n';
      const std::string body =
          had_newline ? line.substr(0, line.size() - 1) : line;
      // Escape: any content line beginning with '.' gets one extra dot,
      // so the block terminator stays unambiguous (see header comment).
      if (!body.empty() && body.front() == '.') out += '.';
      out += body;
      out += '\n';
    }
    out += ".\n";
  }
  return out;
}

Result<EditScript> parse_ed_script_text(const std::string& script_text,
                                        const std::string& base) {
  EditScript script;
  const auto base_lines = split_line_views(base);
  script.old_line_count = base_lines.size();
  script.old_crc =
      crc32(reinterpret_cast<const u8*>(base.data()), base.size());

  const auto raw_lines = split_lines(script_text);
  std::size_t i = 0;
  auto strip_newline = [](const std::string& line) {
    return (!line.empty() && line.back() == '\n')
               ? line.substr(0, line.size() - 1)
               : line;
  };

  while (i < raw_lines.size()) {
    const std::string header = strip_newline(raw_lines[i]);
    ++i;
    if (header.empty()) continue;

    const char kind_char = header.back();
    if (kind_char != 'a' && kind_char != 'c' && kind_char != 'd') {
      return Error{ErrorCode::kInvalidArgument,
                   "not an ed command: " + header};
    }
    const std::string addr = header.substr(0, header.size() - 1);
    const std::size_t comma = addr.find(',');
    EdCommand cmd;
    auto parse_number = [](const std::string& s) -> Result<u64> {
      if (s.empty()) {
        return Error{ErrorCode::kInvalidArgument, "empty ed address"};
      }
      u64 value = 0;
      for (char c : s) {
        if (c < '0' || c > '9') {
          return Error{ErrorCode::kInvalidArgument, "bad ed address: " + s};
        }
        value = value * 10 + static_cast<u64>(c - '0');
      }
      return value;
    };
    SHADOW_ASSIGN_OR_RETURN(
        line1, parse_number(comma == std::string::npos
                                ? addr
                                : addr.substr(0, comma)));
    cmd.line1 = line1;
    if (comma == std::string::npos) {
      cmd.line2 = cmd.line1;
    } else {
      SHADOW_ASSIGN_OR_RETURN(line2, parse_number(addr.substr(comma + 1)));
      cmd.line2 = line2;
    }
    switch (kind_char) {
      case 'a': cmd.kind = EdCommand::Kind::kAppend; break;
      case 'c': cmd.kind = EdCommand::Kind::kChange; break;
      default: cmd.kind = EdCommand::Kind::kDelete; break;
    }

    if (kind_char != 'd') {
      bool terminated = false;
      while (i < raw_lines.size()) {
        std::string body = strip_newline(raw_lines[i]);
        ++i;
        if (body == ".") {
          terminated = true;
          break;
        }
        // Unescape the serializer's leading-dot convention.
        if (body.size() >= 2 && body[0] == '.' && body[1] == '.') {
          body.erase(body.begin());
        }
        cmd.text.push_back(body + "\n");
      }
      if (!terminated) {
        return Error{ErrorCode::kInvalidArgument,
                     "unterminated ed text block"};
      }
    }
    script.commands.push_back(std::move(cmd));
  }

  // Derive the target fingerprint by replaying onto the base.
  SHADOW_ASSIGN_OR_RETURN(replayed,
                          replay_commands(base, base_lines, script.commands));
  script.new_line_count = replayed.line_count;
  script.new_crc = crc32(reinterpret_cast<const u8*>(replayed.text.data()),
                         replayed.text.size());
  return script;
}

std::size_t ed_script_wire_size(const EditScript& script) {
  BufWriter w;
  encode_ed_script(script, w);
  return w.size();
}

}  // namespace shadow::diff
