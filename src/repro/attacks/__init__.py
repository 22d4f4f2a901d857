"""Attack tooling for the paper's §IV-B case studies.

* :class:`FalseCommandInjector` (:mod:`repro.attacks.fci`) — CrashOverride-
  style false command injection: a standard-compliant MMS client on a
  compromised node emits breaker-open commands.
* :class:`ArpSpoofer` / :class:`MitmPipeline` / :class:`MeasurementSpoofer`
  (:mod:`repro.attacks.mitm`) — ARP-spoofing man-in-the-middle that
  intercepts and rewrites MMS traffic (Fig. 6: falsifying a power grid
  measurement towards SCADA/PLC).
* :class:`NetworkScanner` (:mod:`repro.attacks.scanner`) — Nmap-style ARP
  sweep + TCP connect scan for reconnaissance exercises.
"""

from repro.attacks.fci import FalseCommandInjector, InjectionResult
from repro.attacks.mitm import ArpSpoofer, MeasurementSpoofer, MitmPipeline
from repro.attacks.scanner import NetworkScanner, ScanReport

__all__ = [
    "ArpSpoofer",
    "FalseCommandInjector",
    "InjectionResult",
    "MeasurementSpoofer",
    "MitmPipeline",
    "NetworkScanner",
    "ScanReport",
]
