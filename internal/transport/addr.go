package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// parseAddr reads a TCP address under the package's one address rule:
// host:port, host an IPv4 literal, a bracketed IPv6 literal, localhost
// (127.0.0.1), or empty (every IPv4 address of the machine). No name is
// resolved: the socket layer links no resolver.
func parseAddr(addr string) (netip.AddrPort, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return netip.AddrPort{}, fmt.Errorf("transport: address %q: missing port", addr)
	}
	host, port := addr[:i], addr[i+1:]
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("transport: address %q: port %q is not in 0..65535", addr, port)
	}
	ip := netip.IPv4Unspecified()
	switch {
	case host == "localhost":
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	case strings.HasPrefix(host, "["):
		ip, err = netip.ParseAddr(strings.TrimSuffix(host[1:], "]"))
		if err == nil && (!ip.Is6() || ip.Zone() != "" || !strings.HasSuffix(host, "]")) {
			err = errors.New("not a bracketed IPv6 address")
		}
	case host != "":
		if ip, err = netip.ParseAddr(host); err == nil && !ip.Is4() {
			err = errors.New("an IPv6 address needs brackets")
		}
	}
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("transport: address %q: host %q is not an IP address (no name is resolved: pass an IP address such as 127.0.0.1 or [::1], or localhost)", addr, host)
	}
	return netip.AddrPortFrom(ip, uint16(p)), nil
}

// OffsetPort checks addr against the address rule and returns it, host
// as written, with its port shifted by delta: group g of a node listens
// on the node's port plus g.
func OffsetPort(addr string, delta int) (string, error) {
	ap, err := parseAddr(addr)
	if err != nil {
		return "", err
	}
	p := int(ap.Port()) + delta
	if p < 0 || p > 65535 {
		return "", fmt.Errorf("transport: address %q: port %d shifted by %d is out of range", addr, ap.Port(), delta)
	}
	return addr[:strings.LastIndexByte(addr, ':')+1] + strconv.Itoa(p), nil
}
