// Package profiles encodes the operating-system behaviour matrix the
// paper's testbed results (§V) revolve around. Each profile is a
// hoststack.Behavior capturing the quirks observed on real devices:
// resolver preference, RFC 8925 support, CLAT availability, and the DNS
// suffix search list.
package profiles

import "repro/internal/hoststack"

// WindowsXP: dual-stack since the Advanced Networking Pack, but its DNS
// client predates RFC 8106 — queries only ever go to the IPv4 resolver
// (the poisoned one in the testbed), which still hands back healthy AAAA
// answers (paper Fig. 7).
func WindowsXP() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Windows XP",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRDNSS:   false,
		UseSuffixSearch: true,
	}
}

// Windows10: dual-stack, prefers the IPv6 RDNSS resolver from RAs, so
// the poisoned IPv4 resolver is never consulted (paper Fig. 10).
func Windows10() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Windows 10",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRDNSS:   true,
		UseSuffixSearch: true,
	}
}

// Windows10NoV6 is a Windows 10 machine with IPv6 disabled in adapter
// settings — the paper's Fig. 5 client.
func Windows10NoV6() hoststack.Behavior {
	b := Windows10()
	b.Name = "Windows 10 (IPv6 disabled)"
	b.IPv6Enabled = false
	b.SupportsRDNSS = false
	return b
}

// Windows11: dual-stack, but some builds prefer the DHCPv4-provided DNS
// over RDNSS (paper §VI) — so it does consult the poisoned resolver.
func Windows11() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Windows 11",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRDNSS:   true,
		PreferIPv4DNS:   true,
		UseSuffixSearch: true,
	}
}

// Windows11RFC8925 models the anticipated Windows 11 with option 108 and
// CLAT support (paper refs [29]): once released, only the RDNSS resolver
// is used.
func Windows11RFC8925() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Windows 11 (RFC 8925)",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRFC8925: true, HasCLAT: true,
		SupportsRDNSS:   true,
		UseSuffixSearch: true,
	}
}

// Linux: dual-stack, prefers RDNSS, no suffix-search pathology, no
// option 108 in mainstream distributions as of the paper.
func Linux() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Linux",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRDNSS: true,
	}
}

// MacOS: RFC 8925 + CLAT (Apple adopted option 108 early).
func MacOS() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "macOS",
		IPv4Enabled: true, IPv6Enabled: true,
		SupportsRFC8925: true, HasCLAT: true,
		SupportsRDNSS: true,
	}
}

// IOS: same adoption story as macOS.
func IOS() hoststack.Behavior {
	b := MacOS()
	b.Name = "iOS"
	return b
}

// Android: RFC 8925 + CLAT (Google adoption per the paper's intro).
func Android() hoststack.Behavior {
	b := MacOS()
	b.Name = "Android"
	return b
}

// NintendoSwitch: IPv4-only consumer electronics (paper Fig. 6).
func NintendoSwitch() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Nintendo Switch",
		IPv4Enabled: true, IPv6Enabled: false,
	}
}

// IPv6OnlyLinux is a host with its IPv4 stack administratively disabled.
func IPv6OnlyLinux() hoststack.Behavior {
	return hoststack.Behavior{
		Name:        "Linux (IPv6-only)",
		IPv4Enabled: false, IPv6Enabled: true,
		SupportsRDNSS: true,
	}
}

// All returns every client profile used in the §V compatibility matrix.
func All() []hoststack.Behavior {
	return []hoststack.Behavior{
		WindowsXP(),
		Windows10(),
		Windows10NoV6(),
		Windows11(),
		Windows11RFC8925(),
		Linux(),
		MacOS(),
		IOS(),
		Android(),
		NintendoSwitch(),
		IPv6OnlyLinux(),
	}
}
