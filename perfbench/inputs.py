"""Seeded inputs and reference answers for every workload.

Each ``setup_<workload>(seed, out_dir)`` writes the images the
workload scans plus a ``setup.json`` holding what the correctness
gate compares against.  The benchmark runs these in a fresh process,
so the analysis under test sees only files, and set-up memory never
counts toward the measured process's peak RSS.

The seed drives every generated input: container keys and kernel
bytes, which handler each version pair flips, the matryoshka fleet,
the diffcheck programs, the service images and their submission
order.  Vendor profile *contents* stay fixed so that the work per run
is the same for every seed.
"""

import json
import os
import random
from dataclasses import replace

from repro.corpus.profiles import (
    PROFILE_ORDER,
    PROFILES,
    analyzed_module_prefixes,
    build_firmware,
)
from repro.firmware import image as img
from repro.firmware.simplefs import SimpleFS
from repro.pipeline.results import findings_fingerprint
from repro.pipeline.scheduler import FleetJob, execute_job

# Scales are chosen so that one run (three set-ups plus the measured
# window) fits the benchmark's time budget on a 2-core host; the
# planted ground truth never scales away.
SCAN_SCALE = 0.02
FLEET_PROFILES = ("dir645", "dir890l", "dgn1000")
FLEET_MATRYOSHKAS = 20
FLEET_PROGRAMS = 30
SERVICE_MEDIUM_EVERY = 10
SERVICE_MEDIUM_SCALE = 0.02


def write_json(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def pack_vendor_image(elf_bytes, binary_name, rng):
    """vendor-blob → TRX → (LZMA kernel, SimpleFS rootfs with the ELF)."""
    rootfs = SimpleFS()
    rootfs.add_dir("/bin")
    rootfs.add_file("/bin/%s" % binary_name, elf_bytes)
    rootfs.add_file("/etc/build", b"build %d\n" % rng.randrange(1 << 30))
    kernel = (b"\x00" * 64
              + b"Linux version 2.6.%d" % rng.randrange(20, 40)
              + bytes(rng.randrange(256) for _ in range(128)))
    trx = img.pack_trx(img.pack_lzma(kernel), rootfs.pack())
    return img.pack_vendor_blob(inner=trx, xor_key=rng.randrange(1, 256))


def pack_container(elf_bytes, binary_name, container, rng):
    """One ELF in a TRX, uImage or vendor-blob(TRX) container."""
    rootfs = SimpleFS()
    rootfs.add_dir("/bin")
    rootfs.add_file("/bin/%s" % binary_name, elf_bytes)
    kernel = b"\x00" * 32 + bytes(rng.randrange(256) for _ in range(64))
    if container == "uimage":
        return img.pack_uimage(kernel, rootfs.pack(), name=binary_name)
    blob = img.pack_trx(kernel, rootfs.pack())
    if container == "vendor-blob":
        blob = img.pack_vendor_blob(inner=blob,
                                    xor_key=rng.randrange(1, 256))
    return blob


def _labels(built):
    return [[g.function, bool(g.vulnerable)] for g in built.ground_truth]


def reference_sha(job):
    """findings_sha256 of one job run in-process without caches."""
    payload = execute_job(job)
    return findings_fingerprint(payload["report"])


# -- cold_scan ----------------------------------------------------------------


def setup_cold_scan(seed, out_dir):
    rng = random.Random(seed)
    images = []
    for key in PROFILE_ORDER:
        built = build_firmware(key, scale=SCAN_SCALE)
        profile = PROFILES[key]
        path = _write(os.path.join(out_dir, "images", key + ".bin"),
                      pack_vendor_image(built.elf_bytes,
                                        profile.binary_name, rng))
        images.append({
            "key": key, "path": path,
            "modules": list(analyzed_module_prefixes(key)),
            "labels": _labels(built),
            "vulnerabilities": profile.vulnerabilities,
        })
    write_json(os.path.join(out_dir, "setup.json"), {"images": images})


# -- rescan -------------------------------------------------------------------


def vulnerable_handlers(key):
    return [kwargs["name"] for _f, kwargs, _m in PROFILES[key].handlers
            if kwargs.get("name") and kwargs.get("vulnerable", True)]


def setup_rescan(seed, out_dir):
    """Version pairs + a fleet index populated from the old releases."""
    from repro.corpus.fleet import build_version_pair

    rng = random.Random(seed)
    index_dir = os.path.join(out_dir, "index")
    pairs = []
    for key in PROFILE_ORDER:
        flip = rng.choice(vulnerable_handlers(key))
        old, new, flipped = build_version_pair(key, scale=SCAN_SCALE,
                                               flip=flip)
        modules = list(analyzed_module_prefixes(key))
        old_path = _write(os.path.join(out_dir, "elf", key + ".old"),
                          old.elf_bytes)
        new_path = _write(os.path.join(out_dir, "elf", key + ".new"),
                          new.elf_bytes)
        payload = execute_job(
            FleetJob(job_id=key + ".cold", kind="elf", path=old_path,
                     modules=tuple(modules)),
            cache_dir=index_dir, use_fleet_index=True,
        )
        pairs.append({
            "key": key, "flipped": flipped, "modules": modules,
            "old": old_path, "new": new_path,
            "cold_sha256": findings_fingerprint(payload["report"]),
            "cold_report": payload["report"],
            "cold_fingerprints": payload["fingerprints"],
            "old_functions": {
                name: [symbol.addr, symbol.size]
                for name, symbol in old.binary.functions.items()
            },
        })
    write_json(os.path.join(out_dir, "setup.json"),
               {"pairs": pairs, "index": index_dir})


# -- fleet --------------------------------------------------------------------


def setup_fleet(seed, out_dir):
    """Matryoshka nests, packed diffcheck programs and three vendor
    images, with an in-process reference per extracted member."""
    from repro.corpus.matryoshka import generate_matryoshka_fleet
    from repro.diffcheck.generate import build_program, generate_specs
    from repro.pipeline.scheduler import expand_firmware_jobs

    rng = random.Random(seed)
    images = []
    for nest in generate_matryoshka_fleet(FLEET_MATRYOSHKAS, seed=seed):
        images.append((nest.name, nest.blob, ()))
    for spec in generate_specs(seed, FLEET_PROGRAMS):
        built = build_program(spec)
        container = rng.choice(("trx", "uimage", "vendor-blob"))
        images.append((spec.name, pack_container(
            built.elf_bytes, "httpd", container, rng), ()))
    for key in FLEET_PROFILES:
        built = build_firmware(key, scale=SCAN_SCALE)
        images.append((key, pack_vendor_image(
            built.elf_bytes, PROFILES[key].binary_name, rng),
            analyzed_module_prefixes(key)))

    documents = []
    references = {}
    members = {}
    for index, (name, blob, modules) in enumerate(images):
        path = _write(os.path.join(out_dir, "images", name + ".bin"), blob)
        job_id = "img%03d" % index
        documents.append({"job_id": job_id, "path": path,
                          "modules": list(modules)})
        for job in expand_firmware_jobs(job_id, path, modules=modules,
                                        data=blob):
            payload = execute_job(job)
            references[job.job_id] = findings_fingerprint(payload["report"])
            members[job.job_id] = payload["sha256"]
    write_json(os.path.join(out_dir, "setup.json"),
               {"images": documents, "references": references,
                "members": members})


# -- service ------------------------------------------------------------------


def _service_images(seed, count):
    """``count`` distinct images in submission order: each run of ten
    holds one medium vendor image at a seeded position among nine
    small ones."""
    from repro.corpus.fleet import generate_fleet
    from repro.corpus.matryoshka import build_image_blob

    rng = random.Random(seed)
    groups = -(-count // SERVICE_MEDIUM_EVERY)
    small = []
    seen = set()
    for record in generate_fleet(size=2 * count, seed=seed):
        if record.image_id not in seen:
            seen.add(record.image_id)
            small.append(("small-%s" % record.image_id,
                          build_image_blob(record), ()))
    rng.shuffle(small)
    ordered = []
    for index in range(groups):
        key = FLEET_PROFILES[index % len(FLEET_PROFILES)]
        variant = replace(PROFILES[key], seed=rng.randrange(1 << 30))
        built = build_firmware(key, scale=SERVICE_MEDIUM_SCALE,
                               profile=variant)
        medium = ("medium-%s-%03d" % (key, index), pack_vendor_image(
            built.elf_bytes, variant.binary_name, rng),
            analyzed_module_prefixes(key))
        per_group = SERVICE_MEDIUM_EVERY - 1
        group = small[index * per_group:(index + 1) * per_group]
        group.insert(rng.randrange(len(group) + 1), medium)
        ordered.extend(group)
    return ordered[:count]


def setup_service(seed, out_dir, count):
    """The service images in submission order, with references."""
    submissions = []
    for name, blob, modules in _service_images(seed, count):
        path = _write(os.path.join(out_dir, "images", name + ".bin"), blob)
        job = FleetJob(job_id=name, kind="firmware", path=path,
                       modules=tuple(modules))
        submissions.append({"path": path, "modules": list(modules),
                            "reference": reference_sha(job)})
    write_json(os.path.join(out_dir, "setup.json"),
               {"submissions": submissions})


SETUPS = {
    "cold_scan": setup_cold_scan,
    "rescan": setup_rescan,
    "fleet": setup_fleet,
    "service": setup_service,
}
