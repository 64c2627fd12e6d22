"""Line-oriented case file: network, machine, and converter data.

Format: whitespace-separated records, one per line, `#` starts a comment.
Record types (all per-unit on s_base except H [s], time constants [s] and
f_base [Hz]):

    SYSTEM  s_base f_base
    BUS     id kind v_set p_load q_load p_gen q_gen shunt_g shunt_b
    BRANCH  from to r x b_half tap status
    MACHINE bus H D ra xd xq xd1 xq1 td01 tq01 s_rated
            ka ta ke te kf tf vr_min vr_max
            droop t_sv t_ch p_min p_max
    CIG     bus p_ref q_ref K r_droop k_w t_w kp_v ki_v t_i i_max t_f kp_pll ki_pll x_t

kind is one of slack/pv/pq.  MACHINE and CIG records reference a BUS id.
A CIG's bus is its point of connection; a nonzero x_t is the reactance of
its step-up transformer, behind which the assembly step places the
converter terminal on a synthesized bus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

from .cig import CIGControlParams
from .machines import AVRParams, GovParams, SynMachineParams
from .network import Branch, Bus, Network, NetworkError


class CaseParseError(ValueError):
    """Malformed case file; message carries the offending line number."""


@dataclass(frozen=True)
class MachineSpec:
    bus: int
    params: SynMachineParams
    avr: AVRParams
    gov: GovParams


@dataclass(frozen=True)
class CIGSpec:
    bus: int
    params: CIGControlParams


@dataclass
class Case:
    network: Network
    machines: list[MachineSpec] = field(default_factory=list)
    cigs: list[CIGSpec] = field(default_factory=list)


# fields after the tag, per record type
_N_FIELDS = {"SYSTEM": 2, "BUS": 9, "BRANCH": 7, "MACHINE": 24, "CIG": 15}


def parse_case(text: str) -> Case:
    """Parse case-file content into a Case (network + device parameters)."""
    s_base, f_base = 100.0, 60.0
    buses: list[Bus] = []
    branches: list[Branch] = []
    machines: list[MachineSpec] = []
    cigs: list[CIGSpec] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        tag, args = tok[0].upper(), tok[1:]
        try:
            if tag not in _N_FIELDS:
                raise ValueError(f"unknown record type {tag!r}")
            if len(args) != _N_FIELDS[tag]:
                raise ValueError(f"expected {_N_FIELDS[tag]} fields, got {len(args)}")
            if tag == "SYSTEM":
                s_base, f_base = float(args[0]), float(args[1])
            elif tag == "BUS":
                buses.append(Bus(id=int(args[0]), kind=args[1].lower(),
                                 v_set=float(args[2]),
                                 p_load=float(args[3]), q_load=float(args[4]),
                                 p_gen=float(args[5]), q_gen=float(args[6]),
                                 shunt_g=float(args[7]), shunt_b=float(args[8])))
            elif tag == "BRANCH":
                branches.append(Branch(from_bus=int(args[0]), to_bus=int(args[1]),
                                       r=float(args[2]), x=float(args[3]),
                                       b_half=float(args[4]), tap=float(args[5]),
                                       status=int(args[6])))
            elif tag == "MACHINE":
                f = [float(a) for a in args]
                machines.append(MachineSpec(
                    bus=int(f[0]),
                    params=SynMachineParams(H=f[1], D=f[2], ra=f[3], xd=f[4], xq=f[5],
                                            xd1=f[6], xq1=f[7], td01=f[8], tq01=f[9],
                                            s_rated=f[10]),
                    avr=AVRParams(ka=f[11], ta=f[12], ke=f[13], te=f[14], kf=f[15],
                                  tf=f[16], vr_min=f[17], vr_max=f[18]),
                    gov=GovParams(droop=f[19], t_sv=f[20], t_ch=f[21],
                                  p_min=f[22], p_max=f[23])))
            else:  # CIG
                f = [float(a) for a in args]
                cigs.append(CIGSpec(
                    bus=int(f[0]),
                    params=CIGControlParams(p_ref=f[1], q_ref=f[2], K=f[3],
                                            r_droop=f[4], k_w=f[5], t_w=f[6],
                                            kp_v=f[7], ki_v=f[8], t_i=f[9],
                                            i_max=f[10], t_f=f[11],
                                            kp_pll=f[12], ki_pll=f[13], x_t=f[14])))
        except (ValueError, OverflowError, NetworkError) as exc:  # int(inf) overflows
            raise CaseParseError(f"line {lineno}: {exc}") from exc

    try:
        net = Network(buses=buses, branches=branches, s_base=s_base, f_base=f_base)
    except NetworkError as exc:
        raise CaseParseError(str(exc)) from exc

    known = {b.id for b in buses}
    for dev in [*machines, *cigs]:
        if dev.bus not in known:
            raise CaseParseError(f"device references unknown bus {dev.bus}")
    return Case(network=net, machines=machines, cigs=cigs)


def load_bundled_case(name: str = "wscc9") -> Case:
    """A case bundled with the package (data/<name>.case).

    Each bundled case is parsed once per process; every call returns a new
    Case over a `Network.copy` of the parsed network and new lists of its
    frozen device records, so the caller may change it freely.
    """
    case = _bundled_case(name)
    return Case(network=case.network.copy(), machines=list(case.machines),
                cigs=list(case.cigs))


@functools.cache
def _bundled_case(name: str) -> Case:
    """data/<name>.case, read and parsed once: the package's files do not
    change while it runs.  Only `load_bundled_case` reads this Case, and it
    hands out copies, so the Case is never changed."""
    return parse_case(resources.files("gridfreq.data").joinpath(f"{name}.case").read_text())
