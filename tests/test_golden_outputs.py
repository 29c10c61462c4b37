"""The exact bytes of every CLI output on one fixed synthetic log.

The pipeline ``synth --seed 0 → preprocess → fit → predict → evaluate →
crossval -k 3 --repeats 1`` runs in-process, and the SHA-256 of every file it
writes, and of each command's stdout and stderr, must equal the digests
pinned below.  A refactor leaves them alone.  A change that moves the
numbers on purpose (a different solver or stop rule) updates them in the
same change and says so.
"""

import hashlib

from cragrank.cli import main

# Known climbers and routes at weeks inside, before and after the fitted
# ones, and unknown ids on either side.
QUERIES = """climber_id,route_id,week
c00000,r00000,0
c00001,r00003,-50
c00002,r00007,10000
c00099,r00199,4
nobody,r00001,3
c00003,noroute,2
nobody,noroute,1
"""

PINNED = {
    "synth.stdout":
        "ff856c30e1ab0e0867841596a58a282bccf6aba8f0320f2a583349375a069636",
    "synth.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "preprocess.stdout":
        "d22422d29f2334f93655f937d5f0c040cc70ff30adb8bb14704332d2b5edadd8",
    "preprocess.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit.stdout":
        "749e0eabfecde70e8a02e5e44338ca5c5681cdad17cad86f1ee41e2068a169ef",
    "fit.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate.stdout":
        "51c76d4b8bdc887e70d1b2d0ac9e26231e4dd742ebf91af642995ac101e5019e",
    "evaluate.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "crossval.stdout":
        "a34812f32ddb27a7920c1bcabe81c7aa0e8df49973143d2aa33bec0d457c1613",
    "crossval.stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cv/pr_curve.csv":
        "fa40c95ee2e5c36397f4ab17112aaa5b4663e3fb73d9a81c999274ef71eaec67",
    "cv/report.json":
        "2317426497ba63b4218a64a0373b5bb9a884bf32cfd339f9c4324d9995484a92",
    "cv/report.txt":
        "7a3c5983855dc9a8167b05bf48888ffde14ae97b58f0703a4ce96eff2ce11bcc",
    "dataset/ascents.csv":
        "71eef06503191d924f1732551bcdf18b01e7d0035b89b07519f06bffd62c9b6a",
    "dataset/climbers.csv":
        "1f046da50e4db230b364c7480ba9f5a58aa0c65bea3221410431b1170cc1b6db",
    "dataset/provenance.txt":
        "efd7b207bda8b445be74218a34ded673a3e9fc2e8e4f23e85beafbd2910cc3e8",
    "dataset/routes.csv":
        "37bfd7dd95c1372ec85d253e70220f5b8b9a2da887d60d977ded6876e5ca4ed5",
    "eval/pr_curve.csv":
        "a87e6c53bb14adad2ac23263c7aa1aaaad4242915ec8d0841a62c302dbff76a6",
    "eval/ratings_vs_grades.csv":
        "b705f9bd324e56a40f19e0e663b75dec8f752e2f6adac2d46ddc9eb394949a1f",
    "eval/report.json":
        "6858d52deee994970fbcb9cf78105fff544bd6671a043c7a48ae4dca6abf9a36",
    "eval/report.txt":
        "ca18a9261d703152ed13cff7972bcb1147628e642ac48a19464be4e7adaf748e",
    "predictions.csv":
        "44ca06aa7fa86736c20051d1d6ee0aa2dc37fe0d62e28a7a9f55f3b84ba7ec31",
    "ratings/climber_ratings.csv":
        "c7509d884ac48ce1831bda04d4016732bb7581d80b6e6caeef84a54aba7caaea",
    "ratings/fit_report.txt":
        "b9c4ee765e078f1e214771340251772e6faf0150cc67bbcb444a9c2a050606f3",
    "ratings/route_ratings.csv":
        "d54b956338cf18b1df420cdb6ac41819f689a513a4b03d659b534b9051d9086f",
    "synth/raw_ascents.csv":
        "199997e271961ada14e9a143d490d2afb074f83c20cd0e3c55d73080224ce6c2",
    "synth/truth.csv":
        "65215bf0e775cd67c8186519f41c84ac73b1b358924a8cb67615ab4ca0c6c6f0",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_pinned_digests(tmp_path, capsys):
    queries = tmp_path / "queries.csv"
    queries.write_text(QUERIES, encoding="utf-8")
    out = tmp_path / "out"
    digests = {}

    def run(name, *argv):
        assert main([str(a) for a in argv]) == 0
        captured = capsys.readouterr()
        digests[f"{name}.stdout"] = sha256(captured.out.encode("utf-8"))
        digests[f"{name}.stderr"] = sha256(captured.err.encode("utf-8"))

    run("synth", "synth", "--seed", "0", "--out", out / "synth")
    run("preprocess", "preprocess", out / "synth" / "raw_ascents.csv", "--out", out / "dataset")
    run("fit", "fit", out / "dataset", "--out", out / "ratings")
    run("predict", "predict", out / "ratings", queries, "--out", out / "predictions.csv")
    run("evaluate", "evaluate", out / "dataset", "--out", out / "eval")
    run("crossval", "crossval", out / "dataset", "--out", out / "cv", "-k", "3",
        "--repeats", "1")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    assert digests == PINNED
