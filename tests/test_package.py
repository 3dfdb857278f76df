import dicketangle


def test_public_names_resolve():
    for name in dicketangle.__all__:
        assert hasattr(dicketangle, name), name
    namespace = {}
    exec("from dicketangle import *", namespace)
    assert set(dicketangle.__all__) <= set(namespace)
