"""RPL008 support fixture: the submodule that defines the name."""


class SwitchingFabric:
    pass
