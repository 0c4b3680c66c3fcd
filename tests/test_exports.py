import invsub


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_exported_name_resolves():
    missing = [name for name in invsub.__all__ if not hasattr(invsub, name)]
    assert missing == []


def test_exports_are_unique_and_public():
    assert len(set(invsub.__all__)) == len(invsub.__all__)
    assert [name for name in invsub.__all__ if _is_private(name)] == []


def test_signature_type_is_block_config():
    assert "JordanSignature" not in invsub.__all__
    assert not hasattr(invsub, "JordanSignature")
    assert "BlockConfig" in invsub.__all__
