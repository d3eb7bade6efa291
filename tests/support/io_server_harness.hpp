// One I/O server driven with raw packets: a server node and a client node
// on a 1-shard engine, arrivals (with receive timestamps) out. No PFS
// client in the loop, so reply timing is a pure function of the server
// model plus a fixed network path.
#pragma once

#include <vector>

#include <gtest/gtest.h>

#include "pfs/io_server.hpp"
#include "support/one_shard_net.hpp"

namespace saisim::test {

struct IoServerHarness : OneShardNet {
  NodeId server_node = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  NodeId client_node = net.add_node(Bandwidth::gbit(1.0), Bandwidth::gbit(1.0));
  pfs::IoServer server;

  struct Arrival {
    net::Packet packet;
    Time at;
  };
  std::vector<Arrival> arrivals;
  u64 next_id = 1;

  explicit IoServerHarness(pfs::IoServerConfig io = {},
                           pfs::BufferCacheConfig cache = {},
                           pfs::ServerSchedConfig sched = {})
      : server(s, net, server_node, io, cache, sched) {
    net.set_receiver(client_node, [this](net::Packet p) {
      arrivals.push_back({std::move(p), s.now()});
    });
  }

  void send_read(RequestId req, u64 offset, u64 span, Time at,
                 ProcessId proc = 1) {
    send(net::PacketKind::kPfsRequest, req, offset, span, at, proc);
  }

  void send_write(RequestId req, u64 offset, u64 bytes, Time at,
                  ProcessId proc = 1) {
    send(net::PacketKind::kPfsWriteData, req, offset, bytes, at, proc);
  }

  void send(net::PacketKind kind, RequestId req, u64 offset, u64 bytes,
            Time at, ProcessId proc = 1) {
    s.at(at, [this, kind, req, offset, bytes, proc] {
      net::Packet p;
      p.id = next_id++;
      p.kind = kind;
      p.src = client_node;
      p.dst = server_node;
      p.request = req;
      p.owner_process = proc;
      p.strip_index = static_cast<u32>(req % 16);
      // A read request is a small control message; write data carries the
      // strip itself.
      p.payload_bytes = kind == net::PacketKind::kPfsRequest ? 256 : bytes;
      p.file_offset = offset;
      p.span_bytes = bytes;
      net.send(std::move(p));
    });
  }

  Time latency_of(RequestId req, Time sent) const {
    for (const Arrival& a : arrivals) {
      if (a.packet.request == req) return a.at - sent;
    }
    ADD_FAILURE() << "no reply for request " << req;
    return Time::zero();
  }
};

}  // namespace saisim::test
