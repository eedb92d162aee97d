// The network function interface.
//
// NFs process packets through the PacketView accessor layer and return a
// verdict. The NF runtime (src/dataplane) owns delivery: it hands packets
// to the NF and steers them onward (or converts drops into nil packets for
// the merger), so NF code never deals with rings or metadata — matching the
// paper's "NF runtime ... make[s] this process transparent to NF
// developers" design (§5.2).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "actions/profile.hpp"
#include "packet/packet_view.hpp"

namespace nfp {

enum class NfVerdict : u8 { kPass, kDrop };

class NetworkFunction {
 public:
  virtual ~NetworkFunction() = default;

  // The NF type name; must match its action-table registration.
  virtual std::string_view type_name() const = 0;

  // Processes one packet. The view is already parsed and valid.
  virtual NfVerdict process(PacketView& packet) = 0;

  // The declared action profile (paper Table 2 row). The inspector verifies
  // declared profiles against observed behaviour (§5.4).
  virtual ActionProfile declared_profile() const = 0;
};

// The NF runtime's call on every plane: parses `pkt` and runs `nf` on it;
// a frame that does not parse passes untouched.
inline NfVerdict process_packet(NetworkFunction& nf, Packet& pkt) {
  PacketView view(pkt);
  return view.valid() ? nf.process(view) : NfVerdict::kPass;
}

// Factory for the built-in NF types of the paper's evaluation (§6.1).
// Returns nullptr for unknown type names. `seed` parameterizes the NF's
// synthetic tables (routes, ACL rules, signatures) deterministically.
std::unique_ptr<NetworkFunction> make_builtin_nf(std::string_view type_name,
                                                 u64 seed = 1);

}  // namespace nfp
